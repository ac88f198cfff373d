(** A fixed-size domain work-pool with futures, for the embarrassingly
    parallel fan-outs of the pipeline (per-image compile/parse/surface
    chains, pairwise diffs, per-program report matrices).

    Determinism contract: {!map_list}, {!map_list_chunked} and
    {!map_reduce} preserve input order, so parallel runs produce
    byte-identical tables and figures as long as the mapped function is
    pure. A pool of size 1 degrades to plain sequential execution in the
    calling domain — no worker domains are spawned.

    Oversubscription throttle: at most
    [min jobs (Domain.recommended_domain_count ())] tasks execute at
    once, and the pool only spawns that many executors in the first
    place (the caller counts as one). On a host with fewer cores than
    [jobs] the surplus domains are never created: even an idle domain
    parked in [Condition.wait] joins every stop-the-world minor-GC
    rendezvous, which used to make [jobs=4] on one core up to twice as
    slow as sequential on allocation-heavy stages. A caller blocked in
    {!await} helps only while a slot is free; a domain already inside a
    pool task (nested {!await}, {!drain_one}) always pops — inline
    progress there is the deadlock-safe path. The semantics of [jobs]
    are unchanged, only the scheduling. *)

type pool
type 'a future

val default_jobs : unit -> int
(** [DEPSURF_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> pool
(** Create a pool admitting [jobs] concurrent tasks, spawning
    [min jobs (Domain.recommended_domain_count ()) - 1] worker domains
    (the calling domain executes queued tasks while it waits in
    {!await}, so it counts as one executor). Default: {!default_jobs}. *)

val jobs : pool -> int

val submit : pool -> (unit -> 'a) -> 'a future
(** Enqueue a task. Raises [Invalid_argument] after {!shutdown}. The
    submitting domain's ambient {!Deadline} (if armed) is captured and
    re-installed around the task body on the executing worker, so a
    cooperative request budget follows its fan-out across the pool. *)

type task_wrap = { ctx_wrap : 'a. (unit -> 'a) -> 'a }
(** A polymorphic wrapper run around a task's body on the worker that
    executes it. *)

val set_task_context : (unit -> task_wrap) option -> unit
(** Install a context-capture hook. The capture function is called once
    per {!submit}, on the submitting thread, and the wrap it returns
    runs around the task body on whichever domain executes it — letting
    an observability layer (e.g. [Ds_trace]) propagate ambient state
    such as the current span id across the pool handoff. [None]
    restores the identity wrap. Process-global; intended to be set once
    at startup. *)

val await : 'a future -> 'a
(** Block until the task finishes, executing other queued tasks of the
    same pool while waiting. Re-raises the task's exception (with its
    backtrace) if it failed. *)

val drain_one : pool -> bool
(** Pop one queued task and run it on the calling thread; [false] when
    the queue is empty. A server's accept loop, which runs on its own
    domain outside the pool, calls it between selects so queued
    connection handlers progress even when no worker is free; while it
    runs one, that loop accepts nothing. *)

val map_list : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]; results are in input order. The first failing
    element's exception (in input order) is re-raised. *)

val map_list_chunked : ?chunk:int -> pool -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_list} with one pool task per {e chunk} of consecutive elements
    instead of one per element, cutting the per-element future/queue/lock
    cost on fine-grained fan-outs. [chunk] defaults to
    [max 1 (n / (jobs * 4))] — 4 chunks per worker for load balance,
    degenerating to {!map_list} for small [n]. Same determinism and
    exception contract as {!map_list} (a chunk maps its elements
    left-to-right, so the first failing element in input order still
    wins). An empty input returns [[]] and a [chunk] covering the whole
    list maps in the calling domain — neither submits a pool task, so
    both work even against a shut-down pool. Raises [Invalid_argument]
    when [chunk < 1]. *)

val map_reduce : pool -> map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map] runs in parallel; the fold runs left-to-right in input order in
    the calling domain, so the result is deterministic even for
    non-commutative [reduce]. *)

val shutdown : pool -> unit
(** Drain the queue, stop and join every worker domain. Idempotent.
    After shutdown no domains are left running. *)

val run : ?jobs:int -> (pool -> 'a) -> 'a
(** [run f] = create a pool, apply [f], shut the pool down (also on
    exception), return [f]'s result. *)

(** A mutex-protected memo table with an exactly-once guarantee: when
    several domains request the same absent key concurrently, one of them
    computes while the others block until the value is ready. Used by
    [Dataset] so each (version, config) model/image/vmlinux/surface is
    built once no matter how many domains ask for it. *)
module Memo : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** [create n]: initial capacity hint, as for [Hashtbl.create]. *)

  val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  (** Return the memoized value for the key, computing it with the
      supplied thunk at most once at a time across all domains. If the
      computing thunk raises, the same exception is re-raised for every
      waiter of that in-flight computation and the key is evicted, so
      the next lookup retries — a transient failure (e.g. an expired
      request deadline during the fill) never poisons the key. *)

  val find_opt : ('k, 'v) t -> 'k -> 'v option
  (** [Some v] only for keys whose computation already finished. *)

  val length : ('k, 'v) t -> int
  (** Number of completed entries. *)
end
