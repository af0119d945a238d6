type t = { file : string; line : int; col : int }

let dummy = { file = "<synthetic>"; line = 0; col = 0 }
let make ~file ~line ~col = { file; line; col }
let pp ppf t = Format.fprintf ppf "%s:%d:%d" t.file t.line t.col
