module Make (F : Field_intf.S) = struct
  module P = Poly.Make (F)

  type t = {
    n : int;
    deg : int;
    xs : F.t array; (* xs.(i) = F.of_int (i + 1), player i's point *)
    ext : F.t array array;
        (* ext.(r).(j) = L_j(xs.(deg + 1 + r)) for the Lagrange basis
           over the first deg + 1 grid points: the full-grid degree
           check is "every later value equals its extension row dotted
           with the first deg + 1 values". *)
    ivand : F.t array array;
        (* ivand.(d).(j) = the x^d coefficient of that same L_j: the
           inverse Vandermonde matrix of the first deg + 1 grid points,
           so coefficient d of the interpolant is row d dotted with the
           first deg + 1 values. *)
    weights0 : (int, F.t array) Hashtbl.t;
        (* subset bitset -> Lagrange-at-zero weights, ids ascending *)
    exts : (int, F.t array array) Hashtbl.t;
        (* subset bitset -> extension rows over its first deg + 1 ids *)
    sc_ids : int array; (* scratch arena of every subset operation *)
    sc_ys : F.t array;
    mutable full_w0 : F.t array option;
        (* Lagrange-at-zero weights of the first deg + 1 grid points,
           built on first use: the full-inbox fast path of
           [reconstruct_zero_checked_into] — the steady state of a
           fault-free exposure — reads these and the [ext] rows
           directly, skipping the subset bitset and cache lookups. *)
  }

  let n plan = plan.n
  let degree_bound plan = plan.deg

  (* The fixed-row product of every check and reconstruction below:
     sum_{j < len} a.(j) b.(j). With a field kernel
     ({!Field_intf.S.dot}) the sum is formed raw and the loop's ticks
     (len mults, len adds) are paid in bulk; otherwise it is that
     loop. *)
  let dot a b len =
    match F.dot with
    | Some kernel ->
        Metrics.tick_mults len;
        Metrics.tick_adds len;
        kernel a b len
    | None ->
        let acc = ref F.zero in
        for j = 0 to len - 1 do
          acc := F.add !acc (F.mul a.(j) b.(j))
        done;
        !acc

  (* Do [ys.(b + r)] equal [rows.(r)] dotted with the first b values,
     for every r < count? Stops at the first row that disagrees. *)
  let rows_fit rows ys b count =
    let r = ref 0 in
    while !r < count && F.equal (dot rows.(!r) ys b) ys.(b + !r) do
      incr r
    done;
    !r = count

  (* Inverses of the Lagrange denominators prod_{m<>j} (bs.(j) - bs.(m))
     over base points [bs]. *)
  let inv_denoms bs =
    let b = Array.length bs in
    Array.init b (fun j ->
        let d = ref F.one in
        for m = 0 to b - 1 do
          if m <> j then d := F.mul !d (F.sub bs.(j) bs.(m))
        done;
        (* Distinct grid points make the product non-zero. *)
        F.inv !d)

  (* Lagrange basis rows over base points [bs]: for each y in [ys] the
     row of values L_j(y). Denominator inverses are shared across rows;
     the numerators come from prefix/suffix products of (y - bs.(m)),
     so each row costs O(|bs|) multiplications. *)
  let basis_rows_with inv_denom bs ys =
    let b = Array.length bs in
    Array.map
      (fun y ->
        let diff = Array.init b (fun m -> F.sub y bs.(m)) in
        let pre = Array.make (b + 1) F.one in
        for m = 0 to b - 1 do
          pre.(m + 1) <- F.mul pre.(m) diff.(m)
        done;
        let suf = Array.make (b + 1) F.one in
        for m = b - 1 downto 0 do
          suf.(m) <- F.mul suf.(m + 1) diff.(m)
        done;
        Array.init b (fun j ->
            F.mul (F.mul pre.(j) suf.(j + 1)) inv_denom.(j)))
      ys

  let basis_rows bs ys = basis_rows_with (inv_denoms bs) bs ys

  (* Coefficient rows of the same basis: row d holds the x^d
     coefficient of every L_j, each numerator prod_{m<>j} (x - bs.(m))
     expanded one linear factor at a time. *)
  let coeff_rows inv_denom bs =
    let b = Array.length bs in
    let cols =
      Array.init b (fun j ->
          let num = Array.make b F.zero in
          num.(0) <- F.one;
          let deg = ref 0 in
          for m = 0 to b - 1 do
            if m <> j then begin
              for d = !deg + 1 downto 1 do
                num.(d) <- F.sub num.(d - 1) (F.mul bs.(m) num.(d))
              done;
              num.(0) <- F.neg (F.mul bs.(m) num.(0));
              incr deg
            end
          done;
          Array.map (fun c -> F.mul c inv_denom.(j)) num)
    in
    Array.init b (fun d -> Array.init b (fun j -> cols.(j).(d)))

  (* Lagrange-at-zero weights for the point set [ps]: weight i is
     prod_{j<>i} (0 - x_j) / (x_i - x_j) — exactly the coefficients the
     direct interpolate_at formula derives per call. *)
  let zero_weights ps =
    let s = Array.length ps in
    let nx = Array.map F.neg ps in
    let pre = Array.make (s + 1) F.one in
    for m = 0 to s - 1 do
      pre.(m + 1) <- F.mul pre.(m) nx.(m)
    done;
    let suf = Array.make (s + 1) F.one in
    for m = s - 1 downto 0 do
      suf.(m) <- F.mul suf.(m + 1) nx.(m)
    done;
    Array.init s (fun i ->
        let num = F.mul pre.(i) suf.(i + 1) in
        let den = ref F.one in
        for j = 0 to s - 1 do
          if j <> i then den := F.mul !den (F.sub ps.(i) ps.(j))
        done;
        F.div num !den)

  let make ~n ~t =
    if n < 1 then invalid_arg "Grid.make: n must be positive";
    if t < 0 || t >= n then invalid_arg "Grid.make: need 0 <= t < n";
    let xs = Array.init n (fun i -> F.of_int (i + 1)) in
    let base = Array.sub xs 0 (t + 1) in
    let inv_denom = inv_denoms base in
    {
      n;
      deg = t;
      xs;
      ext = basis_rows_with inv_denom base (Array.sub xs (t + 1) (n - t - 1));
      ivand = coeff_rows inv_denom base;
      weights0 = Hashtbl.create 7;
      exts = Hashtbl.create 7;
      sc_ids = Array.make n 0;
      sc_ys = Array.make n F.zero;
      full_w0 = None;
    }

  (* ---- dealing ------------------------------------------------- *)

  (* Every dealing in the repository is evaluated here, one
     {!Poly.Make.eval_rows} call per player point over the dealer's
     polynomials: exactly the values and ticks of per-share Horner, and
     no randomness. The degree is not bounded by the plan's t, so
     cheating dealings (degree up to n - 1) share the loop. *)
  let eval_poly plan p =
    let rows = [| (p : P.t :> F.t array) |] and out = [| F.zero |] in
    Array.map
      (fun x ->
        P.eval_rows rows x out;
        out.(0))
      plan.xs

  let deal plan polys =
    let rows = Array.map (fun p -> (p : P.t :> F.t array)) polys in
    Array.map
      (fun x ->
        let out = Array.make (Array.length rows) F.zero in
        P.eval_rows rows x out;
        out)
      plan.xs

  (* ---- full grid ------------------------------------------------- *)

  let fits plan values =
    if Array.length values <> plan.n then
      invalid_arg "Grid.fits: expected one value per grid point";
    Metrics.tick_interpolation ();
    let b = plan.deg + 1 in
    rows_fit plan.ext values b (plan.n - b)

  let interpolate_checked plan values =
    if not (fits plan values) then None
    else
      let b = plan.deg + 1 in
      Some (Array.init b (fun d -> dot plan.ivand.(d) values b))

  (* ---- subsets -------------------------------------------------- *)

  (* One core serves the array entry point and the list entry points:
     the points are loaded into the plan's scratch arena (ids checked),
     sorted by id and checked for duplicates there, and a subset's rows
     are cached under its membership bitset. The arena makes every
     subset operation non-re-entrant: one at a time per plan. *)

  let out_of_range () = invalid_arg "Grid: player id out of range"

  (* Copy points into the arena from slot [i] on; the number of points.
     More than n points must repeat an id (pigeonhole), so past n only
     the id is checked. The array entry point below copies with the same
     loop written out, which a call per point would slow. *)
  let rec load_from plan i = function
    | [] -> i
    | (id, y) :: rest ->
        if id < 0 || id >= plan.n then out_of_range ();
        if i < plan.n then begin
          plan.sc_ids.(i) <- id;
          plan.sc_ys.(i) <- y
        end;
        load_from plan (i + 1) rest

  let load_list plan = function
    | [] -> invalid_arg "Grid: no points"
    | points -> load_from plan 0 points

  (* Sort the [len] loaded points by id — insertion sort: subsets are
     near-sorted (inbox order) and small, and it allocates nothing — and
     answer whether their ids are distinct. Degraded networks deliver
     duplicates, which only the error-correcting fallback knows how to
     weigh. *)
  let sort_distinct plan len =
    len <= plan.n
    &&
    let sc_ids = plan.sc_ids and sc_ys = plan.sc_ys in
    for i = 1 to len - 1 do
      let id = sc_ids.(i) and y = sc_ys.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && sc_ids.(!j) > id do
        sc_ids.(!j + 1) <- sc_ids.(!j);
        sc_ys.(!j + 1) <- sc_ys.(!j);
        decr j
      done;
      sc_ids.(!j + 1) <- id;
      sc_ys.(!j + 1) <- y
    done;
    let distinct = ref true in
    for i = 0 to len - 2 do
      if sc_ids.(i) = sc_ids.(i + 1) then distinct := false
    done;
    !distinct

  (* Load a list of points that must have distinct ids. *)
  let load_distinct plan points =
    let len = load_list plan points in
    if not (sort_distinct plan len) then
      invalid_arg "Grid: duplicate player id";
    len

  (* [tbl]'s entry for the first [len] arena ids, built by
     [build plan len] on a miss. The key is the membership bitset, which
     fits one word for n <= 62 (every deployed grid: of_int player ids
     cap n well below that in the small fields, and OCaml ints carry 62
     bits). Larger grids skip the cache rather than the computation. *)
  let cached tbl build plan len =
    if plan.n > 62 then build plan len
    else begin
      let key = ref 0 in
      for i = 0 to len - 1 do
        key := !key lor (1 lsl plan.sc_ids.(i))
      done;
      match Hashtbl.find_opt tbl !key with
      | Some v -> v
      | None ->
          let v = build plan len in
          Hashtbl.replace tbl !key v;
          v
    end

  (* Extension rows of the first [len] arena ids: the Lagrange basis
     over the first deg + 1 of them, at the rest. *)
  let ext_rows plan len =
    let b = plan.deg + 1 in
    basis_rows
      (Array.init b (fun i -> plan.xs.(plan.sc_ids.(i))))
      (Array.init (len - b) (fun i -> plan.xs.(plan.sc_ids.(b + i))))

  let weights_of plan len =
    zero_weights (Array.init len (fun i -> plan.xs.(plan.sc_ids.(i))))

  (* Do the first [len] (sorted, distinct) arena points lie on one
     degree-<= deg polynomial? At most deg + 1 points fit trivially. *)
  let arena_fits plan len =
    let b = plan.deg + 1 in
    len <= b
    || rows_fit (cached plan.exts ext_rows plan len) plan.sc_ys b (len - b)

  (* f(0) through the first [len] (sorted, distinct) arena points. *)
  let arena_zero plan len =
    dot (cached plan.weights0 weights_of plan len) plan.sc_ys len

  (* The checked reconstruction of [len] loaded points. *)
  let arena_checked plan len =
    let b = plan.deg + 1 in
    if len < b || not (sort_distinct plan len) then None
    else if not (arena_fits plan len) then None
    else Some (arena_zero plan b)

  let fits_on plan points =
    let len = load_distinct plan points in
    Metrics.tick_interpolation ();
    arena_fits plan len

  let reconstruct_zero plan points =
    let len = load_distinct plan points in
    Metrics.tick_interpolation ();
    arena_zero plan len

  let reconstruct_zero_checked plan points =
    Metrics.tick_interpolation ();
    arena_checked plan (load_list plan points)

  (* ---- array entry point ----------------------------------------- *)

  (* [reconstruct_zero_checked] over parallel arrays: the first [len]
     entries of [ids]/[ys] are copied into the arena by a direct loop
     (the caller's arrays are not modified), so the cache-hit path
     allocates O(1) minor words. *)
  let reconstruct_zero_checked_into plan ~ids ~ys ~len =
    Metrics.tick_interpolation ();
    if len = 0 then invalid_arg "Grid: no points";
    (* Full-inbox fast path: every player present, in id order — the
       steady state of a fault-free exposure round. The subset is the
       whole grid, so the degree check runs over the plan's own [ext]
       rows and the reconstruction over a once-built weight vector:
       identical field elements and steady-state tick pattern to the
       general path below (same basis_rows / zero_weights on the same
       points; the one-time row build was ticked at plan construction
       rather than on first use), with no copying, sorting, bitset keys
       or cache lookups. *)
    let full =
      len = plan.n
      &&
      let ok = ref true in
      for i = 0 to len - 1 do
        if ids.(i) <> i then ok := false
      done;
      !ok
    in
    if full then begin
      let b = plan.deg + 1 in
      if not (rows_fit plan.ext ys b (len - b)) then None
      else begin
        let w =
          match plan.full_w0 with
          | Some w -> w
          | None ->
              let w = zero_weights (Array.sub plan.xs 0 b) in
              plan.full_w0 <- Some w;
              w
        in
        Some (dot w ys b)
      end
    end
    else begin
      let sc_ids = plan.sc_ids and sc_ys = plan.sc_ys in
      for i = 0 to len - 1 do
        let id = ids.(i) in
        if id < 0 || id >= plan.n then out_of_range ();
        if i < plan.n then begin
          sc_ids.(i) <- id;
          sc_ys.(i) <- ys.(i)
        end
      done;
      arena_checked plan len
    end
end
