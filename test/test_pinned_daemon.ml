(* The daemon's whole answer stream on the Gen.Scale document, folded into
   one md5: a seeded stream of 2,000-pair alias batches for each oracle
   and modref requests, three change edits, then the stream again — once
   on a plain document and once on a document opened with a flip
   injection. Every response line goes into the digest, so any change to
   what [Dispatch.handle_line] answers moves it.

   A test executable of its own, like test_pinned: modref answers list
   their classes in identifier order, which depends on the identifiers
   the process interned before the stream. *)

open Support

let doc = "scale"
let workers = 200

let rpc id meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int id);
         ("method", Json.String meth); ("params", Json.Obj params) ])

let oracles = [ "TypeDecl"; "FieldTypeDecl"; "SMFieldTypeRefs" ]

let stream buf ~inject =
  let d =
    Server.Dispatch.create
      ~config:{ Server.Dispatch.default_config with allow_inject = true }
      ()
  in
  let serve line =
    let response = Server.Dispatch.handle_line d line in
    Buffer.add_string buf response;
    Buffer.add_char buf '\n';
    response
  in
  let source = Gen.Scale.source workers in
  let opened =
    Json.of_string
      (serve
         (rpc 0 "open"
            (("name", Json.String doc) :: ("source", Json.String source)
            :: inject)))
  in
  let memrefs =
    match Option.bind (Json.member "result" opened) (Json.member "memrefs") with
    | Some (Json.Int n) when n > 0 -> n
    | _ -> Alcotest.fail "open returned no memrefs"
  in
  let rng = Prng.create 20L in
  let id = ref 0 in
  let next_id () = incr id; !id in
  let queries () =
    List.iter
      (fun oracle ->
        let pairs =
          List.init 2000 (fun _ ->
              Json.List [ Json.Int (Prng.int rng memrefs); Json.Int (Prng.int rng memrefs) ])
        in
        ignore
          (serve
             (rpc (next_id ()) "alias"
                [ ("doc", Json.String doc); ("oracle", Json.String oracle);
                  ("pairs", Json.List pairs) ])))
      oracles;
    for k = 0 to 9 do
      let j = Prng.int rng (workers + Gen.Scale.lib_procs) in
      let proc =
        if j < workers then Printf.sprintf "P%d" j
        else Printf.sprintf "L%d" (j - workers)
      in
      ignore
        (serve
           (rpc (next_id ()) "modref"
              [ ("doc", Json.String doc);
                ("oracle", Json.String (List.nth oracles (k mod 3)));
                ("proc", Json.String proc) ]))
    done
  in
  queries ();
  List.iter
    (fun (start, stop, text) ->
      ignore
        (serve
           (rpc (next_id ()) "change"
              [ ("name", Json.String doc);
                ( "edits",
                  Json.List
                    [ Json.Obj
                        [ ("start", Json.Int start); ("end", Json.Int stop);
                          ("text", Json.String text) ] ] ) ])))
    (Test_mutations.scale_edits source);
  queries ()

let test_digest () =
  let buf = Buffer.create (1 lsl 20) in
  stream buf ~inject:[];
  stream buf
    ~inject:
      [ ( "inject",
          Json.List
            [ Json.Obj
                [ ("kind", Json.String "flip"); ("seed", Json.Int 11);
                  ("rate", Json.Float 0.05) ] ] ) ];
  Alcotest.(check string) "md5 of the daemon's responses"
    "6707a78500505fd931802738db08a978"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "pinned_daemon"
    [ ( "pinned daemon output",
        [ Alcotest.test_case "seeded request stream digest" `Slow test_digest ] ) ]
