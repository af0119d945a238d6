(* JSON-RPC 2.0 envelope: request validation, error codes, responses. *)

open Support

type code =
  | Parse_error
  | Invalid_request
  | Method_not_found
  | Invalid_params
  | Timeout
  | Overloaded
  | Document_error
  | Quarantined
  | Internal_error
  | Cancelled

let code_number = function
  | Parse_error -> -32700
  | Invalid_request -> -32600
  | Method_not_found -> -32601
  | Invalid_params -> -32602
  | Timeout -> -32000
  | Overloaded -> -32001
  | Document_error -> -32002
  | Quarantined -> -32003
  | Internal_error -> -32004
  | Cancelled -> -32005

let code_name = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Method_not_found -> "method_not_found"
  | Invalid_params -> "invalid_params"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"
  | Document_error -> "document_error"
  | Quarantined -> "quarantined"
  | Internal_error -> "internal_error"
  | Cancelled -> "cancelled"

type request = { rq_id : Json.t; rq_method : string; rq_params : Json.t }

exception Reject of Json.t * code * string * (string * Json.t) list

let reject ?(id = Json.Null) ?(data = []) code msg =
  raise (Reject (id, code, msg, data))

let rejectf ?id ?data code fmt =
  Printf.ksprintf (fun msg -> reject ?id ?data code msg) fmt

let request_of_json j =
  match j with
  | Json.Obj _ ->
    (* Recover the id first so even envelope errors can be correlated. *)
    let id =
      match Json.member "id" j with
      | Some ((Json.Int _ | Json.String _ | Json.Null) as id) -> id
      | Some _ | None -> Json.Null
    in
    (match Json.member "method" j with
    | Some (Json.String m) ->
      let params =
        match Json.member "params" j with
        | None | Some Json.Null -> Json.Obj []
        | Some (Json.Obj _ as p) -> p
        | Some _ -> reject ~id Invalid_request "params must be an object"
      in
      { rq_id = id; rq_method = m; rq_params = params }
    | Some _ -> reject ~id Invalid_request "method must be a string"
    | None -> reject ~id Invalid_request "missing method")
  | _ -> reject Invalid_request "request must be a JSON object"

let response_ok id result =
  Json.Obj [ ("jsonrpc", Json.String "2.0"); ("id", id); ("result", result) ]

let response_error id code msg data =
  let err =
    [ ("code", Json.Int (code_number code));
      ("name", Json.String (code_name code));
      ("message", Json.String msg) ]
    @ (if data = [] then [] else [ ("data", Json.Obj data) ])
  in
  Json.Obj
    [ ("jsonrpc", Json.String "2.0"); ("id", id); ("error", Json.Obj err) ]

(* ------------------------------------------------------------------ *)
(* Typed parameter accessors                                           *)
(* ------------------------------------------------------------------ *)

let param rq name = Json.member name rq.rq_params

let bad rq name what =
  rejectf ~id:rq.rq_id Invalid_params "param %S must be %s" name what

let str_param_opt rq name =
  match param rq name with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> bad rq name "a string"

let str_param rq name =
  match str_param_opt rq name with
  | Some s -> s
  | None -> rejectf ~id:rq.rq_id Invalid_params "missing param %S" name

let int_param_opt rq name =
  match param rq name with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> bad rq name "an integer"

let float_param_opt rq name =
  match param rq name with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | Some _ -> bad rq name "a number"

let list_param_opt rq name =
  match param rq name with
  | None | Some Json.Null -> None
  | Some (Json.List l) -> Some l
  | Some _ -> bad rq name "an array"
