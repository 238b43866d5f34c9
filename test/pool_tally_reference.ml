(* How [Pool] tallied the players' reconstructions before the unanimous
   fast path: every value keyed by [F.to_string] in a hash table, the
   best count picked in [Hashtbl.fold] order (a later binding replaces
   an earlier one only on a strictly larger count). Kept verbatim as the
   reference for the differential property in [Test_pool]. *)

module Make (F : Field_intf.S) = struct
  let tally values =
    let counts = Hashtbl.create 7 in
    Array.iter
      (fun v ->
        match v with
        | None -> ()
        | Some x ->
            let key = F.to_string x in
            let prev =
              match Hashtbl.find_opt counts key with
              | Some (c, _) -> c
              | None -> 0
            in
            Hashtbl.replace counts key (prev + 1, x))
      values;
    Hashtbl.fold
      (fun _ (c, x) acc ->
        match acc with
        | Some (c', _) when c' >= c -> acc
        | _ -> Some (c, x))
      counts None
end
