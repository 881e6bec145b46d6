(* [kind|1|key=value…] lines with percent escaping: the shared codec of
   the wire protocol and every journal. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | '|' -> Buffer.add_string b "%7c"
      | '=' -> Buffer.add_string b "%3d"
      | '\n' -> Buffer.add_string b "%0a"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       (match String.sub s (!i + 1) 2 with
       | "25" -> Buffer.add_char b '%'
       | "7c" -> Buffer.add_char b '|'
       | "3d" -> Buffer.add_char b '='
       | "0a" -> Buffer.add_char b '\n'
       | other -> Buffer.add_char b '%'; Buffer.add_string b other);
       i := !i + 3
     end
     else begin
       Buffer.add_char b s.[!i];
       incr i
     end)
  done;
  Buffer.contents b

type fields = (string * string) list

let parse line =
  match String.split_on_char '|' line with
  | kind :: "1" :: fields ->
      Some
        ( kind,
          List.filter_map
            (fun f ->
              match String.index_opt f '=' with
              | Some i ->
                  Some
                    ( String.sub f 0 i,
                      String.sub f (i + 1) (String.length f - i - 1) )
              | None -> None)
            fields )
  | _ -> None

let raw fields k = List.assoc_opt k fields
let str fields k = Option.map unescape (raw fields k)
let int fields k = Option.bind (raw fields k) int_of_string_opt
let float fields k = Option.bind (raw fields k) float_of_string_opt
let bool fields k = Option.bind (raw fields k) bool_of_string_opt

let unknown reason = "unknown:" ^ escape reason

let unknown_reason s =
  if String.starts_with ~prefix:"unknown:" s then
    Some (unescape (String.sub s 8 (String.length s - 8)))
  else None

let fingerprint fields = Journal.crc32_hex (String.concat "|" fields)
