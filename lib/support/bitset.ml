type t = { bits : int array; universe : int }

(* 62 elements per word: element [i] is bit [i mod 62] of word [i / 62].
   Keeping bit 62 (the sign bit of a native int) unused keeps every word
   non-negative, so [w land (-w)] isolates the lowest set bit and the
   popcount masks below fit in a native int. The padding bits of the last
   word stay zero, so [equal], [cardinal] and [is_empty] work a word at a
   time. *)

let bpw = 62
let full_word = (1 lsl bpw) - 1
let words_for n = (n + bpw - 1) / bpw

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Array.make (words_for n) 0; universe = n }

let universe t = t.universe

let check t i =
  if i < 0 || i >= t.universe then invalid_arg "Bitset: element out of universe"

(* [i]'s bit within word [k = i / bpw]. *)
let bit i k = 1 lsl (i - (k * bpw))

let mem t i =
  check t i;
  let k = i / bpw in
  Array.unsafe_get t.bits k land bit i k <> 0

let add t i =
  check t i;
  let k = i / bpw in
  Array.unsafe_set t.bits k (Array.unsafe_get t.bits k lor bit i k)

let remove t i =
  check t i;
  let k = i / bpw in
  Array.unsafe_set t.bits k (Array.unsafe_get t.bits k land lnot (bit i k))

let copy t = { bits = Array.copy t.bits; universe = t.universe }
let clear t = Array.fill t.bits 0 (Array.length t.bits) 0

let fill t =
  let nw = Array.length t.bits in
  Array.fill t.bits 0 nw full_word;
  let tail = t.universe mod bpw in
  if tail <> 0 then t.bits.(nw - 1) <- (1 lsl tail) - 1

(* Bit count of a non-negative word below 2^62 (SWAR). *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56

let cardinal t =
  let n = ref 0 in
  for k = 0 to Array.length t.bits - 1 do
    n := !n + popcount (Array.unsafe_get t.bits k)
  done;
  !n

let is_empty t =
  let bits = t.bits in
  let n = Array.length bits in
  let rec go k = k >= n || (Array.unsafe_get bits k = 0 && go (k + 1)) in
  go 0

let same_universe a b =
  if a.universe <> b.universe then invalid_arg "Bitset: universe mismatch"

let equal a b =
  same_universe a b;
  let n = Array.length a.bits in
  let rec go k =
    k >= n
    || (Array.unsafe_get a.bits k = Array.unsafe_get b.bits k && go (k + 1))
  in
  go 0

let intersects a b =
  same_universe a b;
  let n = Array.length a.bits in
  let rec go k =
    k < n
    && (Array.unsafe_get a.bits k land Array.unsafe_get b.bits k <> 0
       || go (k + 1))
  in
  go 0

let union_into ~dst src =
  same_universe dst src;
  let d = dst.bits and s = src.bits in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k lor Array.unsafe_get s k)
  done

let inter_into ~dst src =
  same_universe dst src;
  let d = dst.bits and s = src.bits in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k land Array.unsafe_get s k)
  done

let diff_into ~dst src =
  same_universe dst src;
  let d = dst.bits and s = src.bits in
  for k = 0 to Array.length d - 1 do
    Array.unsafe_set d k (Array.unsafe_get d k land lnot (Array.unsafe_get s k))
  done

(* Set bits are visited by lowest-set-bit extraction. After each callback
   the word is re-read and masked to the bits above the one just visited,
   so elements the callback adds above the cursor are visited and elements
   it removes are skipped, exactly as under an element-by-element scan. *)
let iter f t =
  let bits = t.bits in
  for k = 0 to Array.length bits - 1 do
    let base = k * bpw in
    let w = ref (Array.unsafe_get bits k) in
    while !w <> 0 do
      let low = !w land (- !w) in
      f (base + popcount (low - 1));
      w := Array.unsafe_get bits k land lnot (low lor (low - 1))
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements t)
