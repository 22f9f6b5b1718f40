(* Just enough JSON for the suite: write result lines, read them back
   together with BENCHMARK.json for --smoke and --compare. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Every digit the float carries, so run-to-run differences survive. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num f
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) l)
    ^ "}"

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail "expected '%c' at byte %d" c !pos;
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal at byte %d" !pos
  in
  let utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          utf8 b (int_of_string ("0x" ^ String.sub s !pos 4));
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number at byte %d" start
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          expect '"';
          let k = string_body () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}' at byte %d" !pos
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec elements acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            elements (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at byte %d" !pos
        in
        elements []
    | '"' ->
      incr pos;
      Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes at %d" !pos;
  v

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> fail "expected an array"
let to_num = function Num f -> f | _ -> fail "expected a number"
let to_str = function Str s -> s | _ -> fail "expected a string"
let to_bool = function Bool b -> b | _ -> fail "expected a boolean"
let to_assoc = function Obj l -> l | _ -> fail "expected an object"

let read_file path =
  parse (In_channel.with_open_bin path In_channel.input_all)

(* One JSON object per non-empty line. *)
let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse
