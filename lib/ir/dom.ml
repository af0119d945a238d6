type t = {
  idom : int array;  (* dominator-tree parent; the entry its own; -1 = unreachable *)
  pre : int array;  (* dominator-tree preorder number; -1 = unreachable *)
  size : int array;  (* dominator-subtree size *)
}

let compute proc =
  let n = Cfg.n_blocks proc in
  let entry = proc.Cfg.pr_entry in
  let rpo = Array.of_list (Cfg.reverse_postorder proc) in
  let preds = Cfg.predecessors proc in
  let order = Array.make n (-1) in
  Array.iteri (fun i b -> order.(b) <- i) rpo;
  (* Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm":
     [idom] holds each processed block's current dominator-tree parent, the
     entry its own; [intersect] walks two fingers up the tree to their
     nearest common ancestor, the deeper one (later in reverse postorder)
     first. *)
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> entry then begin
          let next =
            List.fold_left
              (fun acc p ->
                if idom.(p) < 0 then acc
                else if acc < 0 then p
                else intersect p acc)
              (-1) preds.(b)
          in
          if next <> idom.(b) then begin
            idom.(b) <- next;
            changed := true
          end
        end)
      rpo
  done;
  (* Preorder numbers and subtree sizes on the dominator tree make
     [dominates] an interval test. *)
  let children = Array.make n [] in
  Array.iter
    (fun b -> if b <> entry then children.(idom.(b)) <- b :: children.(idom.(b)))
    rpo;
  let pre = Array.make n (-1) and size = Array.make n 1 in
  let preorder = Array.make (Array.length rpo) entry in
  let rec walk clock = function
    | [] -> ()
    | b :: rest ->
      pre.(b) <- clock;
      preorder.(clock) <- b;
      walk (clock + 1) (List.rev_append children.(b) rest)
  in
  walk 0 [ entry ];
  for i = Array.length preorder - 1 downto 1 do
    let b = preorder.(i) in
    size.(idom.(b)) <- size.(idom.(b)) + size.(b)
  done;
  { idom; pre; size }

let reachable t b = t.pre.(b) >= 0

let dominates t a b =
  let pa = t.pre.(a) and pb = t.pre.(b) in
  pa >= 0 && pa <= pb && pb < pa + t.size.(a)

let idom t b =
  let d = t.idom.(b) in
  if d < 0 || d = b then None else Some d
