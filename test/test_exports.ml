(* The export guard: every value a [lib/] interface declares must have a
   caller outside its own module in production code ([lib/], [bin/],
   [bench/], [examples/]), or be on the allow-list below with a reason. A
   [lib/] module with no interface exports its top-level [let]s, and they
   are held to the same rule.

   The scan is by name over the sources (dune copies them in as
   dependencies). A file uses [Mod.name] when it mentions [Mod.name], or
   mentions [name] after [open Mod] / [include Mod] / [Mod.(], or
   mentions [X.name] after [module X = Mod]. A file that passes [Mod]
   whole (a functor argument, a first-class module, [module X = Mod]
   without a later [X.name]) uses none of its values by this scan. *)

(* ------------------------------------------------------------------ *)
(* A token stream that skips comments, strings and character literals  *)
(* ------------------------------------------------------------------ *)

type token = Ident of string | Sym of char

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Each token with whether it starts its line: top-level definitions of
   formatted source start at column 0. *)
let tokens_at_bol (s : string) : (token * bool) array =
  let n = String.length s in
  let out = ref [] in
  let emit i tok = out := (tok, i = 0 || s.[i - 1] = '\n') :: !out in
  (* [skip_string i] is the index just past the string opening at [i]. *)
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|...|id}]: [i] is at the '{'; returns [Some stop] when it is one. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do incr j done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let cl = String.length close in
      let k = ref (!j + 1) in
      while !k + cl <= n && String.sub s !k cl <> close do incr k done;
      Some (min n (!k + cl))
    end
    else None
  in
  (* A character literal at [i] (the quote): returns its end, or [None]
     for a type variable's quote. *)
  let char_lit i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && s.[i + 1] = '\\' then begin
      let k = ref (i + 2) in
      while !k < n && s.[!k] <> '\'' do incr k done;
      Some (!k + 1)
    end
    else None
  in
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      let c = s.[i] in
      if c = '(' && i + 1 < n && s.[i + 1] = '*' then go (skip_comment (i + 2) 1)
      else if c = '"' then go (skip_string (i + 1))
      else if c = '{' then
        match quoted_string i with
        | Some j -> go j
        | None -> emit i (Sym c); go (i + 1)
      else if c = '\'' then
        match char_lit i with Some j -> go j | None -> go (i + 1)
      else if is_ident_start c then begin
        let j = ref (i + 1) in
        while !j < n && is_ident_char s.[!j] do incr j done;
        emit i (Ident (String.sub s i (!j - i)));
        go !j
      end
      else if c = ' ' || c = '\n' || c = '\t' || c = '\r' then go (i + 1)
      else begin
        emit i (Sym c);
        go (i + 1)
      end
  in
  go 0;
  Array.of_list (List.rev !out)

let tokens s = Array.map fst (tokens_at_bol s)

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec sources dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           let path = Filename.concat dir entry in
           if Sys.is_directory path then sources path
           else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
           then [ path ]
           else [])

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* Top-level [val] names of an interface; values inside nested
   signatures ([sig ... end], [object ... end]) are not counted. *)
let exported_values toks =
  let depth = ref 0 and acc = ref [] in
  Array.iteri
    (fun i tok ->
      match tok with
      | Ident ("sig" | "object") -> incr depth
      | Ident "end" -> decr depth
      | Ident "val" when !depth = 0 && i + 1 < Array.length toks -> (
        match toks.(i + 1) with
        | Ident name -> acc := name :: !acc
        | Sym _ -> ())
      | _ -> ())
    toks;
  List.rev !acc

(* Top-level [let]-bound names of an implementation, each with the token
   span of its definition: a [let] or [let rec] at column 0, and the
   [and]s at column 0 that continue it (an [and] after a [type] names a
   type), each running to the next token at column 0. [let ()] and
   [let _] bind nothing. *)
let toplevel_lets toks =
  let n = Array.length toks in
  let name_at i =
    let i = if i < n && fst toks.(i) = Ident "rec" then i + 1 else i in
    match if i < n then fst toks.(i) else Sym ' ' with
    | Ident v when v <> "_" -> Some v
    | _ -> None
  in
  let stop_of i =
    let j = ref (i + 1) in
    while !j < n && not (snd toks.(!j)) do incr j done;
    !j
  in
  let in_let = ref false and acc = ref [] in
  Array.iteri
    (fun i (tok, bol) ->
      if bol then
        let bind () =
          Option.iter (fun v -> acc := (v, i, stop_of i) :: !acc) (name_at (i + 1))
        in
        match tok with
        | Ident "let" -> in_let := true; bind ()
        | Ident "and" -> if !in_let then bind ()
        | _ -> in_let := false)
    toks;
  List.rev !acc

let is_upper name = name <> "" && name.[0] >= 'A' && name.[0] <= 'Z'

(* What one file uses: the [(module, value)] pairs it qualifies, and for
   each module it opens, every lowercase name it mentions. *)
type usage = {
  qualified : (string * string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
}

let usage_of toks =
  let u =
    { qualified = Hashtbl.create 64; opened = Hashtbl.create 8; bare = Hashtbl.create 256 }
  in
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  (* The last module of a dotted path starting at [i]. *)
  let rec last_module i =
    match toks.(i) with
    | Ident m when is_upper m ->
      if i + 2 < n && toks.(i + 1) = Sym '.' then
        match toks.(i + 2) with
        | Ident m' when is_upper m' -> last_module (i + 2)
        | _ -> Some m
      else Some m
    | _ -> None
  in
  for i = 0 to n - 1 do
    match toks.(i) with
    | Ident ("open" | "include") when i + 1 < n -> (
      let j = if toks.(i + 1) = Sym '!' then i + 2 else i + 1 in
      if j < n then
        match last_module j with
        | Some m -> Hashtbl.replace u.opened (resolve m) ()
        | None -> ())
    | Ident "module" when i + 3 < n && toks.(i + 2) = Sym '=' -> (
      match (toks.(i + 1), last_module (i + 3)) with
      | Ident x, Some m -> Hashtbl.replace aliases x (resolve m)
      | _ -> ())
    | Ident m when is_upper m && i + 2 < n && toks.(i + 1) = Sym '.' -> (
      match toks.(i + 2) with
      | Ident v when not (is_upper v) -> Hashtbl.replace u.qualified (resolve m, v) ()
      | Sym '(' -> Hashtbl.replace u.opened (resolve m) ()
      | _ -> ())
    | Ident v when not (is_upper v) -> Hashtbl.replace u.bare v ()
    | _ -> ()
  done;
  u

let uses u (m, v) =
  Hashtbl.mem u.qualified (m, v) || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare v)

(* ------------------------------------------------------------------ *)
(* The scan                                                            *)
(* ------------------------------------------------------------------ *)

(* [interfaces] are the [lib/] files that declare exports (each [.mli],
   and each [.ml] with no [.mli]), [callers] every production source,
   each as (path, text). The result lists ["Mod.value"] for every export
   no file of another module uses. A module with no interface may also
   call its own top-level [let] outside that [let]'s definition: the
   compiler's unused-value warning does not see such a module, so the
   guard is what catches a dead helper there. *)
let uncalled ~interfaces ~callers =
  let usages = List.map (fun (f, text) -> (f, usage_of (tokens text))) callers in
  List.concat_map
    (fun (path, text) ->
      let m = module_of path in
      let own f = module_of f = m && Filename.dirname f = Filename.dirname path in
      let called_elsewhere v =
        List.exists (fun (f, u) -> (not (own f)) && uses u (m, v)) usages
      in
      let uncalled_names =
        if Filename.check_suffix path ".mli" then
          List.filter (fun v -> not (called_elsewhere v)) (exported_values (tokens text))
        else
          let toks = tokens_at_bol text in
          let rec called_here (v, start, stop) i =
            i < Array.length toks
            && (((i < start || i >= stop) && fst toks.(i) = Ident v)
               || called_here (v, start, stop) (i + 1))
          in
          toplevel_lets toks
          |> List.filter (fun ((v, _, _) as def) -> not (called_here def 0 || called_elsewhere v))
          |> List.map (fun (v, _, _) -> v)
      in
      List.map (fun v -> m ^ "." ^ v) uncalled_names)
    interfaces

let with_text paths = List.map (fun p -> (p, read_file p)) paths

let lib_interfaces () =
  with_text
    (List.filter
       (fun p ->
         Filename.check_suffix p ".mli"
         || not (Sys.file_exists (p ^ "i")))
       (sources "../lib"))

(* Each directory must be there: a missing dependency would otherwise read
   as exports nobody calls. *)
let production () =
  with_text
    (List.concat_map
       (fun dir ->
         match sources dir with
         | [] -> Alcotest.failf "no sources under %s (is it a dependency?)" dir
         | files -> files)
       [ "../lib"; "../bin"; "../bench"; "../examples" ])

(* Exports that only tests call, each with the reason it stays in [lib/]. *)
let test_only =
  [ ("Aloc.equal", "properties compare location classes structurally");
    ("Claims.to_json", "test_pinned hashes the claims ledger");
    ("Engine.counters", "tests read the per-engine oracle query counters");
    ("Engine.modref_direct", "test_incr compares incremental and fresh direct effects");
    ("Experiments.dynamic_seven", "test_harness runs the seven dynamic workloads");
    ("Fuzz.all_configs", "test_pipeline walks the fuzzer's 27-configuration matrix");
    ("Fuzz.check_source", "test_opt replays one generated program through the matrix");
    ("Runner.first_divergence", "test_harness checks the output-divergence locator");
    ("Runner.divergence_error", "test_harness checks the divergence message");
    ("Runner.check_outputs_agree", "test_harness checks the agreement gate");
    ("Cfg.set_procs", "tests replace a program's procedure list in place");
    ("Cfg.pp_proc", "tests print one procedure in failure messages");
    ("Dom.idom", "test_ir checks immediate dominators against the reference");
    ("Lexer.tokenize", "test_frontend pins the token stream");
    ("Parser.parse_expr_string", "test_frontend parses single expressions");
    ("Modref.of_summaries", "the reference closure mod-ref builds through it");
    ("Modref.summary", "tests compare per-procedure mod-ref summaries");
    ("Pass_manager.reports_for", "tests pick one pass's reports from a run");
    ("Rle.kill_index", "test_opt checks kill_set against the per-expression baseline \
                        over every prefix, not only the builder's scalar ones");
    ("Dispatch.quiesce", "test_server waits for in-flight work before asserting");
    ("Store.name", "tests identify a document");
    ("Store.edits_full", "test_edit_path counts full rebuilds");
    ("Store.last_fallback", "test_edit_path checks why an edit left the fast path");
    ("Bitset.universe", "bitset tests check the universe size");
    ("Bitset.pp", "bitset tests print sets in failure messages");
    ("Clock.with_raw", "tests substitute the raw clock");
    ("Json.schema_version", "test_pipeline pins the stats schema version");
    ("Json.schema_of", "test_pipeline pins the stats schema");
    ("Union_find.same", "union-find tests");
    ("Union_find.group", "union-find tests and the reference compat build");
    ("Union_find.groups", "union-find tests");
    ("Union_find.copy", "union-find tests");
    ("Vec.exists", "vector tests") ]

let check_list label expected actual =
  Alcotest.(check (list string)) label expected actual

let test_every_export_called () =
  let flagged = uncalled ~interfaces:(lib_interfaces ()) ~callers:(production ()) in
  check_list "exports with no production caller and no allow-list entry" []
    (List.filter (fun q -> not (List.mem_assoc q test_only)) flagged);
  check_list "allow-list entries that production now calls, or that are gone" []
    (List.filter (fun (q, _) -> not (List.mem q flagged)) test_only |> List.map fst)

(* The scanner itself, on sources given in memory. *)
let test_scanner () =
  let mli = ("lib/x/widget.mli", "val used : int\nval planted : int\nval opened : int\n\
                                   module M : sig val inner : int end\n") in
  let callers =
    [ ("lib/x/widget.ml", "let used = 1 let planted = 2 let opened = 3");
      ("bin/a.ml", "let _ = Lib.Widget.used (* Widget.planted *) \"Widget.planted\"");
      ("bin/b.ml", "module W = Widget let _ = W.opened") ]
  in
  check_list "a planted export with no caller is flagged" [ "Widget.planted" ]
    (uncalled ~interfaces:[ mli ] ~callers);
  check_list "an opened module's bare names count as calls" []
    (uncalled ~interfaces:[ mli ]
       ~callers:(("bin/c.ml", "open Widget let _ = planted") :: callers));
  let plain =
    ( "lib/x/plain.ml",
      "type t = A\nand dead_type = B\n\nlet helper = 1\nlet used = helper\n\
       let dead = 2\nlet rec self_only n = self_only n\nand sibling = used\n\
       let () = ignore sibling\n" )
  in
  check_list "an interface-less module's unused top-level lets are flagged"
    [ "Plain.dead"; "Plain.self_only" ]
    (uncalled ~interfaces:[ plain ] ~callers:(plain :: callers))

let () =
  Alcotest.run "exports"
    [ ( "exports",
        [ Alcotest.test_case "the scanner" `Quick test_scanner;
          Alcotest.test_case "every lib export has a production caller" `Quick
            test_every_export_called ] ) ]
