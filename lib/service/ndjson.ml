(* Hand-rolled flat-JSON codec for the serve wire format.  The events are
   one-line objects of numbers (arrivals in, decisions out); a full JSON
   library would add a dependency for no expressive gain. *)

exception Malformed of string

exception Bad_input of { line : int; text : string; reason : string }

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ---------------------------------------------------------------- lexer *)

type token =
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | String of string
  | Number of float
  | True
  | False

let tokenize line =
  let n = String.length line in
  let tokens = ref [] in
  let push t = tokens := t :: !tokens in
  let i = ref 0 in
  let is_number_char c =
    (c >= '0' && c <= '9')
    || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  while !i < n do
    (match line.[!i] with
    | ' ' | '\t' | '\r' -> incr i
    | '{' -> push Lbrace; incr i
    | '}' -> push Rbrace; incr i
    | '[' -> push Lbracket; incr i
    | ']' -> push Rbracket; incr i
    | ':' -> push Colon; incr i
    | ',' -> push Comma; incr i
    | '"' ->
      let close =
        match String.index_from_opt line (!i + 1) '"' with
        | Some j -> j
        | None -> malformed "unterminated string in %S" line
      in
      let s = String.sub line (!i + 1) (close - !i - 1) in
      if String.contains s '\\' then
        malformed "escape sequences are not supported: %S" s;
      push (String s);
      i := close + 1
    | 't' when !i + 4 <= n && String.sub line !i 4 = "true" ->
      push True;
      i := !i + 4
    | 'f' when !i + 5 <= n && String.sub line !i 5 = "false" ->
      push False;
      i := !i + 5
    | c when is_number_char c ->
      let j = ref !i in
      while !j < n && is_number_char line.[!j] do
        incr j
      done;
      let s = String.sub line !i (!j - !i) in
      (match float_of_string_opt s with
      | Some f -> push (Number f)
      | None -> malformed "bad number %S in %S" s line);
      i := !j
    | c -> malformed "unexpected character %C in %S" c line)
  done;
  List.rev !tokens

(* --------------------------------------------------------------- parser *)

(* A flat object: string keys, values that are numbers, booleans or arrays
   of numbers.  Arrivals use numbers only; the other two parse so that a
   wrong-typed field is refused by name. *)
type value = Num of float | Bool of bool | Nums of float list

let parse_object line =
  let rec pairs acc = function
    | Rbrace :: [] -> List.rev acc
    | String key :: Colon :: rest -> value key acc rest
    | _ -> malformed "expected \"key\": value in %S" line
  and value key acc = function
    | Number f :: rest -> next ((key, Num f) :: acc) rest
    | True :: rest -> next ((key, Bool true) :: acc) rest
    | False :: rest -> next ((key, Bool false) :: acc) rest
    | Lbracket :: rest -> array key acc [] rest
    | _ -> malformed "unsupported value for %S in %S" key line
  and array key acc nums = function
    | Rbracket :: rest -> next ((key, Nums (List.rev nums)) :: acc) rest
    | Number f :: Comma :: rest -> array key acc (f :: nums) rest
    | Number f :: (Rbracket :: _ as rest) -> array key acc (f :: nums) rest
    | _ -> malformed "bad array for %S in %S" key line
  and next acc = function
    | Comma :: rest -> pairs acc rest
    | [ Rbrace ] -> List.rev acc
    | _ -> malformed "expected ',' or '}' in %S" line
  in
  match tokenize line with
  | Lbrace :: Rbrace :: [] -> []
  | Lbrace :: rest -> pairs [] rest
  | _ -> malformed "expected a JSON object, got %S" line

let int_of_float_field ~key f =
  let i = int_of_float f in
  if float_of_int i <> f then malformed "%S must be an integer, got %g" key f;
  i

let get fields key =
  match List.assoc_opt key fields with
  | Some v -> v
  | None -> malformed "missing key %S" key

let num fields key =
  match get fields key with
  | Num f -> f
  | Bool _ | Nums _ -> malformed "%S must be a number" key

let int fields key = int_of_float_field ~key (num fields key)

(* The tokenizer reads 1e999 as infinity; a location or accuracy must be
   a real number before it reaches the cell hash or the policy. *)
let finite fields key =
  let f = num fields key in
  if not (Float.is_finite f) then malformed "%S must be finite, got %g" key f;
  f

(* -------------------------------------------------------------- arrivals *)

let arrival_of_line line =
  let fields = parse_object line in
  Ltc_core.Worker.make ~index:(int fields "index")
    ~loc:
      (Ltc_geo.Point.make ~x:(finite fields "x") ~y:(finite fields "y"))
    ~accuracy:(finite fields "accuracy")
    ~capacity:(int fields "capacity")

(* Truncate the offending bytes for error messages: a malformed "line"
   could be megabytes of binary garbage. *)
let excerpt ?(max = 60) s =
  if String.length s <= max then s else String.sub s 0 max ^ "..."

let arrival_exn ~line:line_no text =
  Ltc_util.Fault.check "ndjson.parse";
  try arrival_of_line text with
  | Malformed reason ->
    raise (Bad_input { line = line_no; text = excerpt text; reason })
  | Invalid_argument reason ->
    raise (Bad_input { line = line_no; text = excerpt text; reason })

(* ------------------------------------------------------------- decisions *)

let int_list_to_json tasks =
  "[" ^ String.concat "," (List.map string_of_int tasks) ^ "]"

(* [degraded] is emitted only when true, so the common fault-free wire
   format is unchanged. *)
let decision_to_line (d : Ltc_algo.Engine.decision) =
  Printf.sprintf
    "{\"index\":%d,\"assigned\":%s,\"answered\":%s,\"completed\":%b,\"latency\":%d%s}"
    d.worker (int_list_to_json d.assigned) (int_list_to_json d.answered)
    d.completed d.latency
    (if d.degraded then ",\"degraded\":true" else "")
