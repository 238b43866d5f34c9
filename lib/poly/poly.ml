module Make (F : Field_intf.S) = struct
  (* Invariant: either the array is empty (zero polynomial) or its last
     element is non-zero. *)
  type t = F.t array

  let normalize a =
    let rec top i = if i >= 0 && F.equal a.(i) F.zero then top (i - 1) else i in
    let d = top (Array.length a - 1) in
    if d = Array.length a - 1 then a else Array.sub a 0 (d + 1)

  let zero = [||]
  let one = [| F.one |]
  let constant c = normalize [| c |]

  let monomial c d =
    assert (d >= 0);
    if F.equal c F.zero then zero
    else Array.init (d + 1) (fun i -> if i = d then c else F.zero)

  (* Single copy: find the top non-zero coefficient first, then copy
     exactly the normalized prefix (normalize-after-copy would copy an
     already-normalized array twice). *)
  let of_coeffs a =
    let rec top i = if i >= 0 && F.equal a.(i) F.zero then top (i - 1) else i in
    Array.sub a 0 (top (Array.length a - 1) + 1)
  let coeffs p = Array.copy p
  let coeff p d = if d < Array.length p then p.(d) else F.zero
  let degree p = Array.length p - 1

  let equal a b =
    Array.length a = Array.length b && Array.for_all2 F.equal a b

  let pp ppf p =
    if Array.length p = 0 then Format.pp_print_string ppf "0"
    else begin
      let first = ref true in
      Array.iteri
        (fun d c ->
          if not (F.equal c F.zero) then begin
            if not !first then Format.pp_print_string ppf " + ";
            first := false;
            if d = 0 then F.pp ppf c
            else if F.equal c F.one then Format.fprintf ppf "x^%d" d
            else Format.fprintf ppf "%a*x^%d" F.pp c d
          end)
        p;
      if !first then Format.pp_print_string ppf "0"
    end

  (* Horner as a loop: a local recursive function would allocate its
     closure on every call, and this is the per-share evaluation of
     every dealing. *)
  let eval p x =
    let len = Array.length p in
    if len = 0 then F.zero
    else begin
      let acc = ref p.(len - 1) in
      for i = len - 2 downto 0 do
        acc := F.add (F.mul !acc x) p.(i)
      done;
      !acc
    end

  (* The one multi-row Horner: the field's raw kernel with the loop's
     ticks paid in bulk, or that loop. *)
  let eval_rows rows x out =
    let nrows = Array.length rows in
    if Array.length out < nrows then
      invalid_arg "Poly.eval_rows: output shorter than rows";
    match F.horner with
    | Some kernel ->
        if Metrics.counting_enabled () then begin
          let steps = ref 0 in
          for r = 0 to nrows - 1 do
            let len = Array.length rows.(r) in
            if len > 1 then steps := !steps + len - 1
          done;
          Metrics.tick_mults !steps;
          Metrics.tick_adds !steps
        end;
        kernel rows x out
    | None ->
        for r = 0 to nrows - 1 do
          out.(r) <- eval rows.(r) x
        done

  let add a b =
    let n = max (Array.length a) (Array.length b) in
    normalize
      (Array.init n (fun i ->
           F.add
             (if i < Array.length a then a.(i) else F.zero)
             (if i < Array.length b then b.(i) else F.zero)))

  let sub a b =
    let n = max (Array.length a) (Array.length b) in
    normalize
      (Array.init n (fun i ->
           F.sub
             (if i < Array.length a then a.(i) else F.zero)
             (if i < Array.length b then b.(i) else F.zero)))

  let scale c p =
    if F.equal c F.zero then zero else normalize (Array.map (F.mul c) p)

  let mul a b =
    if Array.length a = 0 || Array.length b = 0 then zero
    else begin
      let out = Array.make (Array.length a + Array.length b - 1) F.zero in
      Array.iteri
        (fun i ai ->
          if not (F.equal ai F.zero) then
            Array.iteri
              (fun j bj -> out.(i + j) <- F.add out.(i + j) (F.mul ai bj))
              b)
        a;
      normalize out
    end

  let divmod a b =
    if Array.length b = 0 then raise Division_by_zero;
    let db = degree b in
    let lead_inv = F.inv b.(db) in
    let r = Array.copy a in
    let dq = degree a - db in
    if dq < 0 then (zero, normalize r)
    else begin
      let q = Array.make (dq + 1) F.zero in
      for d = degree a downto db do
        let c = r.(d) in
        if not (F.equal c F.zero) then begin
          let f = F.mul c lead_inv in
          q.(d - db) <- f;
          for i = 0 to db do
            r.(d - db + i) <- F.sub r.(d - db + i) (F.mul f b.(i))
          done
        end
      done;
      (normalize q, normalize r)
    end

  let random g ~degree =
    assert (degree >= 0);
    normalize (Array.init (degree + 1) (fun _ -> F.random g))

  let random_with_c0 g ~degree ~c0 =
    assert (degree >= 0);
    normalize
      (Array.init (degree + 1) (fun i -> if i = 0 then c0 else F.random g))

  (* Lagrange basis: for each point j, the product over i <> j of
     (x - x_i) / (x_j - x_i). We build the master product N(x) = prod
     (x - x_i) once and divide out each factor, which keeps the whole
     interpolation at O(n^2) field operations. *)
  let interpolate points =
    Metrics.tick_interpolation ();
    match points with
    | [] -> zero
    | points ->
        let xs = Array.of_list (List.map fst points) in
        let ys = Array.of_list (List.map snd points) in
        let n = Array.length xs in
        let master =
          Array.fold_left
            (fun acc x -> mul acc [| F.neg x; F.one |])
            one xs
        in
        let acc = ref zero in
        for j = 0 to n - 1 do
          let basis, rem = divmod master [| F.neg xs.(j); F.one |] in
          assert (Array.length rem = 0);
          let denom = eval basis xs.(j) in
          (* Distinct xs make denom non-zero. *)
          acc := add !acc (scale (F.div ys.(j) denom) basis)
        done;
        !acc

  (* Array fast path: the hot reconstruction pipeline (Shamir, coin
     exposure) builds xs/ys directly instead of a list of pairs. [?len]
     reads only a prefix, so callers can reuse one scratch arena across
     reconstructions instead of allocating exact-size arrays. *)
  let interpolate_at_arrays ?len ~xs ~ys x0 =
    let n =
      match len with
      | None ->
          if Array.length xs <> Array.length ys then
            invalid_arg "Poly.interpolate_at_arrays: length mismatch";
          Array.length xs
      | Some l ->
          if l < 0 || l > Array.length xs || l > Array.length ys then
            invalid_arg "Poly.interpolate_at_arrays: bad prefix length";
          l
    in
    Metrics.tick_interpolation ();
    let total = ref F.zero in
    for j = 0 to n - 1 do
      let num = ref F.one and den = ref F.one in
      for i = 0 to n - 1 do
        if i <> j then begin
          num := F.mul !num (F.sub x0 xs.(i));
          den := F.mul !den (F.sub xs.(j) xs.(i))
        end
      done;
      total := F.add !total (F.mul ys.(j) (F.div !num !den))
    done;
    !total

  let interpolate_at points x0 =
    interpolate_at_arrays
      ~xs:(Array.of_list (List.map fst points))
      ~ys:(Array.of_list (List.map snd points))
      x0

  let fits_degree points ~max_degree =
    degree (interpolate points) <= max_degree
end
