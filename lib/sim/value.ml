(* Runtime values. Pointers are addresses into the simulator's two address
   spaces: non-negative addresses live in the static space (globals and
   stack-resident locals), negative addresses encode heap slots. *)

type t =
  | Vint of int
  | Vbool of bool
  | Vchar of char
  | Vnil
  | Vaddr of int

let equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vchar x, Vchar y -> x = y
  | Vnil, Vnil -> true
  | Vaddr x, Vaddr y -> x = y
  | (Vint _ | Vbool _ | Vchar _ | Vnil | Vaddr _), _ -> false

(* Default value for a freshly allocated location of the given type. *)
let default env (tid : Minim3.Types.tid) =
  match Minim3.Types.desc env tid with
  | Minim3.Types.Dint -> Vint 0
  | Minim3.Types.Dbool -> Vbool false
  | Minim3.Types.Dchar -> Vchar '\000'
  | _ -> Vnil
