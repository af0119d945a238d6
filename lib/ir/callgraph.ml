open Support
open Minim3

let callees_of_target program = function
  | Instr.Cdirect p -> [ p ]
  | Instr.Cvirtual (m, recv_ty) ->
    List.sort_uniq Ident.compare
      (Types.subtree_impls program.Cfg.tenv recv_ty m)

let callees program proc =
  let acc = ref Ident.Set.empty in
  Cfg.iter_instrs proc (fun _ instr ->
      match instr with
      | Instr.Icall (_, target, _) ->
        List.iter
          (fun p -> acc := Ident.Set.add p !acc)
          (callees_of_target program target)
      | _ -> ());
  !acc

(* ------------------------------------------------------------------ *)
(* SCC condensation                                                    *)
(* ------------------------------------------------------------------ *)

type condensation = {
  cond_comps : Ident.t list array;
  cond_index : (Ident.t, int) Hashtbl.t;
  cond_succs : int list array;
}

(* Tarjan's algorithm, iterative (generated corpora reach thousands of
   procedures; the call graph can be deep enough to blow the OCaml stack
   under the naive recursion). Tarjan emits a component only after every
   component reachable from it, so the emission order *is* a topological
   order of the condensation with callees first — exactly the evaluation
   order the engine's merged-summary pass wants. Everything here is
   deterministic: roots are tried in [nodes] order, successors in the
   (sorted) [Ident.Set] fold order, and members are sorted per component. *)
let condense ~(nodes : Ident.t list) ~(callees : Ident.t -> Ident.Set.t) =
  let node = Array.of_list nodes in
  let n = Array.length node in
  let id_of = Hashtbl.create (2 * max 1 n) in
  Array.iteri
    (fun i p -> if not (Hashtbl.mem id_of p) then Hashtbl.add id_of p i)
    node;
  let succs =
    Array.map
      (fun p ->
        Ident.Set.fold
          (fun q acc ->
            match Hashtbl.find_opt id_of q with
            | Some j -> j :: acc
            | None -> acc  (* callee with no body in this program *))
          (callees p) [])
      node
  in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in  (* reverse emission order *)
  let emit v =
    let rec pop acc =
      match !stack with
      | [] -> acc
      | w :: rest ->
        stack := rest;
        on_stack.(w) <- false;
        if w = v then w :: acc else pop (w :: acc)
    in
    comps := pop [] :: !comps
  in
  let frames = Stack.create () in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Stack.push (v, ref succs.(v)) frames
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while not (Stack.is_empty frames) do
        let v, rest = Stack.top frames in
        match !rest with
        | w :: tl ->
          rest := tl;
          if index.(w) < 0 then visit w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
          ignore (Stack.pop frames);
          if lowlink.(v) = index.(v) then emit v;
          (match Stack.top_opt frames with
          | Some (u, _) -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
          | None -> ())
      done
    end
  done;
  let int_comps = Array.of_list (List.rev !comps) in
  let nc = Array.length int_comps in
  let comp_of = Array.make n 0 in
  Array.iteri
    (fun c members -> List.iter (fun v -> comp_of.(v) <- c) members)
    int_comps;
  let cond_index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun i p -> Hashtbl.replace cond_index p comp_of.(i)) node;
  let cond_comps =
    Array.map
      (fun members -> List.sort Ident.compare (List.map (fun v -> node.(v)) members))
      int_comps
  in
  let cond_succs =
    Array.make nc []
    |> Array.mapi (fun c _ ->
           let acc = ref [] in
           List.iter
             (fun v ->
               List.iter
                 (fun w -> if comp_of.(w) <> c then acc := comp_of.(w) :: !acc)
                 succs.(v))
             int_comps.(c);
           List.sort_uniq Int.compare !acc)
  in
  { cond_comps; cond_index; cond_succs }

let condense_program program =
  condense
    ~nodes:(List.map (fun p -> p.Cfg.pr_name) program.Cfg.prog_procs)
    ~callees:(fun name ->
      match Cfg.find_proc_opt program name with
      | Some p -> callees program p
      | None -> Ident.Set.empty)
