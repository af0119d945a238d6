type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let push t x =
  if t.len = Array.length t.data then begin
    let cap = max 8 (2 * t.len) in
    let bigger = Array.make cap x in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let append_array t a =
  let n = Array.length a in
  if n > 0 then begin
    let need = t.len + n in
    if need > Array.length t.data then begin
      let bigger = Array.make (max 8 (max need (2 * Array.length t.data))) a.(0) in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    Array.blit a 0 t.data t.len n;
    t.len <- need
  end

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  (* Entries past [n] keep their array slots (no Obj magic to blank them);
     they are unreachable through the Vec API and overwritten on re-push. *)
  t.len <- n

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0
