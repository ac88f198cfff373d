(** Binary readers and writers with explicit endianness.

    All on-disk artifacts in this project (ELF images, DWARF sections, BTF
    blobs, eBPF object files) are produced by {!Writer} and re-parsed by
    {!Reader}; both support little- and big-endian byte order and 4- or
    8-byte pointers so that the ppc (big-endian in our model) and arm32
    images exercise the same architecture-specific handling the paper's
    data-section parser needed. *)

type endian = Little | Big

exception Truncated of string
(** Raised by {!Reader} on reads past the end of the buffer. *)

(** A non-copying view of a region of a string: offset + length over the
    backing buffer, no [Bigstringaf] (or any C stubs) involved. Used by
    the binary parsers and the HTTP front-end to scan, compare and split
    without the per-record [String.sub] copies.

    Safety rules: a slice {e pins the entire backing string} alive, so
    convert with {!to_string} before storing a slice in a long-lived
    structure (an index entry, a parsed record); and slices are only
    valid views of immutable strings — never wrap a [Bytes.t] that is
    still being mutated. *)
module Slice : sig
  type t

  val of_string : string -> t
  val make : string -> pos:int -> len:int -> t
  (** Raises [Invalid_argument] when the region is out of bounds. *)

  val length : t -> int
  val is_empty : t -> bool

  val get : t -> int -> char
  (** Raises [Invalid_argument] out of bounds. *)

  val sub : t -> pos:int -> len:int -> t
  (** A sub-view; no copy. *)

  val to_string : t -> string
  (** The one explicit copy. *)

  val index_opt : t -> char -> int option
  val trim : t -> t
  (** Drop ASCII whitespace from both ends; no copy. *)

  val lowercase_string : t -> string
  (** ASCII-lowercased contents, in a single allocation. *)

  val equal_string : t -> string -> bool
  (** Positional comparison; no allocation. *)

  val equal_caseless_string : t -> string -> bool
end

module Writer : sig
  type t

  val create : ?endian:endian -> unit -> t
  val endian : t -> endian
  val pos : t -> int

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val uint : t -> int -> unit
  (** [uint w v] writes [v] (assumed non-negative, < 2^63) as a u64. *)

  val uleb128 : t -> int -> unit
  val sleb128 : t -> int -> unit
  val bytes : t -> string -> unit

  val append : t -> t -> unit
  (** [append w src] writes everything written to [src] so far. *)

  val clear : t -> unit
  (** [clear w] empties [w], keeping its storage for reuse. *)

  val cstring : t -> string -> unit
  (** NUL-terminated string. The string itself must not contain NUL. *)

  val align : t -> int -> unit
  (** Pad with zero bytes to the given alignment. *)

  val contents : t -> string
end

module Reader : sig
  type t

  val of_string : ?endian:endian -> string -> t
  val sub : t -> pos:int -> len:int -> t
  (** A sub-reader over [len] bytes starting at absolute [pos]; inherits
      endianness. *)

  val endian : t -> endian
  val pos : t -> int
  val length : t -> int
  val eof : t -> bool
  val seek : t -> int -> unit

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val uint : t -> int
  (** Reads a u64 and converts to [int]; raises [Truncated] if it does not
      fit in an OCaml int. *)

  val uleb128 : t -> int
  val sleb128 : t -> int
  val bytes : t -> int -> string

  val slice : t -> int -> Slice.t
  (** Like {!bytes} but returns a non-copying view of the backing
      string (which it pins alive — see the {!Slice} safety rules). *)

  val expect : t -> string -> bool
  (** [expect r magic] compares the next bytes against [magic] without
      allocating; consumes them and returns [true] on a match, leaves
      the cursor in place and returns [false] otherwise. Raises
      [Truncated] when fewer than [String.length magic] bytes remain. *)

  val cstring : t -> string
  (** Reads up to (and consumes) the next NUL byte. *)

  val cstring_at : t -> int -> string
  (** [cstring_at r pos] reads a NUL-terminated string at absolute [pos]
      without moving the cursor. Used for string-table lookups. *)
end
