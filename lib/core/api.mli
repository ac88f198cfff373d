(** The versioned public response envelope.

    Every JSON answer the project gives — serve endpoints and [--json]
    CLI output alike — is wrapped in one shape:

    {v
    { "v": 1,
      "health": "clean" | "degraded" | "fatal",
      "data": <endpoint-specific payload>,
      "diagnostics": [ "<Diag.to_string line>", ... ] }
    v}

    The [data] payload keeps the historical (appendix-format) encodings
    from {!Export} byte-for-byte; the envelope only adds the version and
    health wrapper around them. *)

val version : int
(** The current envelope version, [1]. *)

val envelope :
  ?health:string -> ?diagnostics:Ds_util.Json.t list -> Ds_util.Json.t -> Ds_util.Json.t
(** Wrap a payload. [health] defaults to ["clean"], [diagnostics] to
    the empty list. *)

val of_diags : data:Ds_util.Json.t -> Ds_util.Diag.t list -> Ds_util.Json.t
(** Wrap a payload deriving [health] from the worst diagnostic severity
    (warnings count as clean) and rendering each diagnostic with
    [Diag.to_string]. *)

val error_envelope : status:int -> ?diagnostics:string list -> string -> Ds_util.Json.t
(** The one constructor every non-2xx body goes through: [health =
    "fatal"], the message as the first diagnostic (followed by any
    extra [diagnostics]) and as [data.error], the HTTP status under
    [data.status]. Serve routes 400/404/405/408/413/431/503 through
    this so error payloads are uniform (golden-pinned in the tests). *)

val data : Ds_util.Json.t -> Ds_util.Json.t
(** Unwrap: the [data] member of an envelope, or the document itself
    when it is not enveloped (pre-v1 producers). *)

(** {2 Mutation request envelope}

    Mutating endpoints ([POST /v1/mismatch], [POST /v1/verify],
    [POST /v1/subscriptions]) share one request schema:

    {v
    { "v": 1,
      "params": { "<query-param>": "<value>", ... },   (optional)
      "body": "<base64>" | { ...inline JSON... } }     (optional)
    v}

    [params] entries override query-string parameters of the same name;
    [body] is either base64 (for binary payloads such as BPF objects)
    or an inline JSON document (for JSON endpoints). Bare bodies —
    raw bytes or plain JSON without a ["v"] member — are still accepted
    unchanged and answer byte-identically (equivalence-tested). *)

type mutation = {
  mu_params : (string * string) list;  (** envelope [params], decoded *)
  mu_body : string;  (** the effective request body bytes *)
  mu_enveloped : bool;  (** whether the envelope spelling was used *)
}

val parse_mutation : string -> (mutation, string list) result
(** Classify and decode a mutating request body. A body that does not
    parse as a JSON object with a ["v"] member is bare: returned
    verbatim with no params. [Error problems] lists every validation
    failure of an enveloped body (bad version, non-string params,
    invalid base64, unknown members) for the uniform 400 diagnostics
    payload. *)
