(** The one text format of the project's records.

    Wire requests and replies, sweep and service journal entries and
    the coordinator's replicated records are all single lines of the
    shape [kind|1|key=value|key=value…]. Values are percent-escaped so
    that they never contain the separators: ['%'] becomes [%25], ['|']
    [%7c], ['='] [%3d] and a newline [%0a]. The ["1"] is the format
    revision; a line with any other revision is foreign.

    Readers are lenient in the same ways everywhere: a field without
    ['='] is skipped, a key that appears twice answers with its first
    value, and a key the reader does not know is ignored — which is
    what lets a coordinator stamp [|epoch=N] onto records whose
    readers predate it. *)

val escape : string -> string
val unescape : string -> string
(** [unescape] decodes only the four escapes above; any other ['%']
    sequence is kept verbatim. *)

type fields = (string * string) list
(** The [key=value] fields of a record, in order, values still
    escaped. *)

val parse : string -> (string * fields) option
(** The kind and fields of a revision-1 record; [None] for any other
    line. *)

val raw : fields -> string -> string option
(** The first value of a key, as written. *)

val str : fields -> string -> string option
(** The first value of a key, unescaped. *)

val int : fields -> string -> int option
val float : fields -> string -> float option
val bool : fields -> string -> bool option
(** The first value of a key, read with [int_of_string_opt],
    [float_of_string_opt] or [bool_of_string_opt]; [None] when the key
    is missing or its value does not read. *)

val unknown : string -> string
(** The verdict text of an undecided answer: ["unknown:"] and the
    escaped reason. *)

val unknown_reason : string -> string option
(** The reason of an [unknown:] verdict text, unescaped; [None] for
    any other text. *)

val fingerprint : string list -> string
(** The content digest of a record: {!Journal.crc32_hex} of the given
    (already rendered) fields joined with ['|']. Records carry it so
    that a reader can reject a tampered verdict whose frame CRC was
    recomputed. *)
