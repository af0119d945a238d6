type site_stat = {
  ss_site : Interp.site;
  mutable ss_loads : int;
  mutable ss_redundant : int;
  mutable ss_breakup_prev : int;
}

(* Mutable, updated in place: one record per touched heap slot for the
   whole run, not one per load event. *)
type last_load = {
  mutable ll_value : Value.t;
  mutable ll_activation : int;
  mutable ll_site : Interp.site;
}

(* Per-site stats are indexed by [site_id], which the interpreter assigns
   densely from 0 in order of first firing — so a growable array beats a
   hash table on the per-event hot path. *)
(* The last-load memory is indexed by the dense heap slot index behind
   each (contiguously allocated) heap address — a flat growable array, so
   the per-event hot path never hashes. *)
type t = {
  mutable last : last_load option array;
  mutable stats : site_stat option array;
  mutable heap_loads : int;
  mutable redundant : int;
}

(* Cross-tracer size hint: the high-water heap index of earlier traced
   runs. Starting at the previous high-water mark skips the per-run
   doubling series of multi-megabyte array copies. Purely a capacity
   hint — over-sizing only costs memory. *)
let size_hint = ref 4096

let create () =
  { last = Array.make !size_hint None; stats = Array.make 256 None;
    heap_loads = 0; redundant = 0 }

let last_slot t addr =
  let i = Interp.heap_index addr in
  if i >= Array.length t.last then begin
    let bigger = Array.make (max (2 * Array.length t.last) (i + 1)) None in
    Array.blit t.last 0 bigger 0 (Array.length t.last);
    t.last <- bigger;
    size_hint := max !size_hint (Array.length bigger)
  end;
  i

let stat_for t (site : Interp.site) =
  let id = site.Interp.site_id in
  if id >= Array.length t.stats then begin
    let bigger = Array.make (max (2 * Array.length t.stats) (id + 1)) None in
    Array.blit t.stats 0 bigger 0 (Array.length t.stats);
    t.stats <- bigger
  end;
  match t.stats.(id) with
  | Some s -> s
  | None ->
    let s =
      { ss_site = site; ss_loads = 0; ss_redundant = 0; ss_breakup_prev = 0 }
    in
    t.stats.(id) <- Some s;
    s

let site_expr (s : Interp.site) =
  match s.Interp.site_kind with
  | Interp.Sexplicit (ap, k) -> Some (Ir.Apath.truncate ap k)
  | Interp.Sdope _ | Interp.Snumber | Interp.Sdispatch -> None

let on_load t (e : Interp.load_event) =
  if e.Interp.le_heap then begin
    t.heap_loads <- t.heap_loads + 1;
    let stat = stat_for t e.Interp.le_site in
    stat.ss_loads <- stat.ss_loads + 1;
    let slot = last_slot t e.Interp.le_addr in
    match t.last.(slot) with
    | Some prev ->
      if
        Value.equal prev.ll_value e.Interp.le_value
        && prev.ll_activation = e.Interp.le_activation
      then begin
        t.redundant <- t.redundant + 1;
        stat.ss_redundant <- stat.ss_redundant + 1;
        let differs =
          match (site_expr prev.ll_site, site_expr e.Interp.le_site) with
          | Some a, Some b -> not (Ir.Apath.equal a b)
          | _ -> false
        in
        if differs then stat.ss_breakup_prev <- stat.ss_breakup_prev + 1
      end;
      prev.ll_value <- e.Interp.le_value;
      prev.ll_activation <- e.Interp.le_activation;
      prev.ll_site <- e.Interp.le_site
    | None ->
      t.last.(slot) <-
        Some
          { ll_value = e.Interp.le_value;
            ll_activation = e.Interp.le_activation;
            ll_site = e.Interp.le_site }
  end

let total_heap_loads t = t.heap_loads
let total_redundant t = t.redundant

let sites t =
  Array.fold_right
    (fun slot acc -> match slot with Some s -> s :: acc | None -> acc)
    t.stats []
