open Support

type t = {
  lines : int array;  (* tag per set; -1 = invalid *)
  line_shift : int;
  set_mask : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* [set_mask = nsets - 1] is a set index mask — and [line_shift] an exact
   line shift — only when both dimensions are powers of two; anything else
   would silently index a wrong (and partly unreachable) set array. *)
let create ?(size_bytes = 32 * 1024) ?(line_bytes = 32) () =
  if not (is_pow2 line_bytes) then
    Diag.error "Cache.create: line_bytes must be a power of two, got %d"
      line_bytes;
  if not (is_pow2 size_bytes) then
    Diag.error "Cache.create: size_bytes must be a power of two, got %d"
      size_bytes;
  if size_bytes < line_bytes then
    Diag.error "Cache.create: size_bytes (%d) is smaller than line_bytes (%d)"
      size_bytes line_bytes;
  let nsets = size_bytes / line_bytes in
  { lines = Array.make nsets (-1); line_shift = log2 line_bytes;
    set_mask = nsets - 1; hits = 0; misses = 0 }

let access t byte_addr =
  let line = byte_addr asr t.line_shift in
  let set = line land t.set_mask in
  if t.lines.(set) = line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.lines.(set) <- line;
    t.misses <- t.misses + 1;
    false
  end

let reset t =
  Array.fill t.lines 0 (Array.length t.lines) (-1);
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
