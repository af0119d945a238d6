(* The tests run optimizer passes the one way production does: through
   [Opt.Pass_manager.run] over a fresh context, one [Run] item per pass,
   in order. *)

let run ?(oracle_kind = Opt.Pass.Osm_field_type_refs) ?claims program passes =
  let ctx = Opt.Pass.create ~oracle_kind () in
  ctx.Opt.Pass.claims <- claims;
  Opt.Pass_manager.run ctx program
    (List.map (fun p -> Opt.Pass_manager.Run p) passes)

(* [stat reports pass name]: the counter summed over the pass's runs. *)
let stat reports (p : Opt.Pass.t) name =
  Opt.Pass_manager.sum_stat p.Opt.Pass.name name reports
