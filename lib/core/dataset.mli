(** The study's image matrix and its extracted surfaces, built once and
    memoized: 17 x86/generic versions plus 4 architectures and 4 flavors
    at v5.4 — 25 images (paper §3.2). *)

open Ds_ksrc

type t

val study_images : (Version.t * Config.t) list
(** All 25 (version, config) pairs. *)

val fig4_images : (Version.t * Config.t) list
(** The 21 images of Figure 4: 17 x86 versions + 4 arches at v5.4. *)

val build : seed:int64 -> ?store:Ds_store.Store.t -> Calibration.scale -> t
(** Generate the kernel history; images and surfaces materialize lazily
    on first access. With [store], images and surfaces additionally get a
    persistent on-disk tier under the in-memory memo tables: computed
    artifacts are written through, and later processes (same seed, scale
    and codec version) load them instead of recompiling. *)

val seed : t -> int64

val scale : t -> Calibration.scale

val store : t -> Ds_store.Store.t option

val compile_count : t -> int
(** How many kernel models this process actually compiled (cache hits
    don't compile); the bench asserts this is 0 on a warm run. *)

val cache_key : ?version:int -> t -> label:string -> string list -> string
(** [cache_key t ~label parts]: a store key binding the payload format
    [version] ({!Codec.version} unless given), evolution seed, scale
    record, [label] and [parts] — everything the artifact's content is a
    function of. Shaped [label ^ "-" ^ digest]. A payload not written by
    {!Codec} passes its own format's version, so a codec change does not
    orphan it. *)

val source : t -> Version.t -> Source.t
(** O(1): served from a [Hashtbl] index built over the history at
    construction time. *)

val image : t -> Version.t -> Config.t -> Ds_elf.Elf.t
val model : t -> Version.t -> Config.t -> Ds_kcc.Compile.model
val vmlinux : t -> Version.t -> Config.t -> Ds_bpf.Vmlinux.t
val surface : t -> Version.t -> Config.t -> Surface.t
val x86_series : t -> (Version.t * Surface.t) list
(** The 17 x86/generic surfaces in release order. *)

val warm : t -> unit
(** Force every study image/surface sequentially (useful before timing
    runs). *)

val warm_list : ?pool:Ds_util.Par.pool -> t -> (Version.t * Config.t) list -> unit
(** Force the given images, through the pool when one is supplied. Each
    image's compile → emit → ELF-roundtrip → parse → surface chain is
    independent, so this fans out near-linearly.

    All accessors above are safe to call from multiple domains: the memo
    tables guarantee each (version, config) model/image/vmlinux/surface
    is computed exactly once. *)

val warm_par : ?pool:Ds_util.Par.pool -> t -> unit
(** {!warm_list} over {!study_images}; without [pool], a temporary pool
    sized by [DEPSURF_JOBS] (default: all cores) is created and shut
    down. *)
