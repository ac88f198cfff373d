open Ds_ksrc
module Par = Ds_util.Par
module Store = Ds_store.Store

type t = {
  seed : int64;
  scale : Calibration.scale;
  history : (Version.t * Source.t) list;
  sources : (Version.t, Source.t) Hashtbl.t;
      (* index over [history]; read-only after [build], so safe to share
         across domains without a lock *)
  store : Store.t option;
      (* persistent tier under the in-memory memo tables; [None] disables
         on-disk caching entirely *)
  models : (string, Ds_kcc.Compile.model) Par.Memo.t;
  images : (string, Ds_elf.Elf.t) Par.Memo.t;
  vmlinuxes : (string, Ds_bpf.Vmlinux.t) Par.Memo.t;
  surfaces : (string, Surface.t) Par.Memo.t;
}

let study_images =
  List.map (fun v -> (v, Config.x86_generic)) Version.all
  @ List.map
      (fun cfg -> (Version.v 5 4, cfg))
      (List.filter (fun c -> not (Config.equal c Config.x86_generic)) Config.study_configs)

let fig4_images =
  List.map (fun v -> (v, Config.x86_generic)) Version.all
  @ List.map
      (fun arch -> (Version.v 5 4, Config.{ arch; flavor = Generic }))
      [ Config.Arm64; Config.Arm32; Config.Ppc; Config.Riscv ]

let build ~seed ?store scale =
  let history = Evolution.build_history ~seed scale in
  let sources = Hashtbl.create (List.length history) in
  List.iter (fun (v, src) -> Hashtbl.replace sources v src) history;
  {
    seed;
    scale;
    history;
    sources;
    store;
    models = Par.Memo.create 32;
    images = Par.Memo.create 32;
    vmlinuxes = Par.Memo.create 32;
    surfaces = Par.Memo.create 32;
  }

let seed t = t.seed
let scale t = t.scale
let store t = t.store

let compile_count t = Par.Memo.length t.models

let cache_key ?(version = Codec_base.version) t ~label parts =
  let h = Store.Hash.create () in
  Store.Hash.int h version;
  Store.Hash.int64 h t.seed;
  Store.Hash.float h t.scale.Calibration.sc_funcs;
  Store.Hash.float h t.scale.Calibration.sc_structs;
  Store.Hash.float h t.scale.Calibration.sc_tracepoints;
  Store.Hash.float h t.scale.Calibration.sc_syscalls;
  Store.Hash.string h label;
  List.iter (Store.Hash.string h) parts;
  label ^ "-" ^ Store.Hash.hex h

let source t v =
  match Hashtbl.find_opt t.sources v with
  | Some src -> src
  | None -> invalid_arg ("Dataset.source: unknown version " ^ Version.to_string v)

let key v cfg = Version.to_string v ^ "/" ^ Config.to_string cfg

let model t v cfg =
  Par.Memo.find_or_compute t.models (key v cfg) (fun () ->
      Ds_kcc.Compile.compile (source t v) cfg)

let image t v cfg =
  Par.Memo.find_or_compute t.images (key v cfg) (fun () ->
      (* Serialize once and parse the bytes back: every analysis works on
         what a real image file would provide, not on in-memory
         structures. The store keeps those same bytes, and a stored
         payload goes through the same parse. *)
      let parse bytes = (bytes, Ds_util.Diag.ok (Ds_elf.Elf.read bytes)) in
      snd
        (Store.memo t.store ~ns:"image"
           ~key:(cache_key t ~label:(key v cfg) [])
           ~encode:fst ~decode:parse
           (fun () ->
             let img = Ds_kcc.Emit.emit (model t v cfg) in
             parse (Ds_trace.Trace.span ~name:"elf.write" (fun () -> Ds_elf.Elf.write img)))))

let vmlinux t v cfg =
  Par.Memo.find_or_compute t.vmlinuxes (key v cfg) (fun () ->
      Ds_util.Diag.ok (Ds_bpf.Vmlinux.load (image t v cfg)))

let surface t v cfg =
  Par.Memo.find_or_compute t.surfaces (key v cfg) (fun () ->
      Ds_trace.Trace.span ~name:"dataset.surface" ~attrs:[ ("image", key v cfg) ] (fun () ->
          Store.memo t.store ~ns:"surface"
            ~cache_if:(fun s -> not (Surface.degraded s))
            ~key:(cache_key t ~label:(key v cfg) [])
            ~encode:Codec_base.encode_surface ~decode:Codec_base.decode_surface
            (fun () -> Ds_util.Diag.ok (Surface.of_vmlinux (vmlinux t v cfg)))))

let x86_series t = List.map (fun v -> (v, surface t v Config.x86_generic)) Version.all

let warm t = List.iter (fun (v, cfg) -> ignore (surface t v cfg)) study_images

let warm_list ?pool t imgs =
  match pool with
  | None -> List.iter (fun (v, cfg) -> ignore (surface t v cfg)) imgs
  | Some p -> ignore (Par.map_list_chunked p (fun (v, cfg) -> ignore (surface t v cfg)) imgs)

let warm_par ?pool t =
  match pool with
  | Some _ -> warm_list ?pool t study_images
  | None -> Par.run (fun p -> warm_list ~pool:p t study_images)
