(** A small JSON library (values, printer, parser) for the dataset-export
    format of the paper's artifact appendix. No external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val write : Buffer.t -> t -> unit
(** Append the compact spelling: no whitespace between tokens, strings
    escaped, a [Float] in the shortest form that {!of_string} reads back
    as the same float, a non-finite one as [null]. *)

val to_string : t -> string
(** {!write} into a fresh string. *)

val of_string : string -> t
(** Parse. Raises {!Parse_error} on malformed input. Numbers without [.],
    [e] or [E] parse as [Int]. *)

val member : string -> t -> t option
(** Object field lookup. *)

val to_int : t -> int
val to_str : t -> string
(** Raise [Parse_error] when the value has the wrong shape. *)
