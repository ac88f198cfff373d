open Ds_util
open Ds_ksrc
module W = Bytesio.Writer
module R = Bytesio.Reader

let codec_version = 1
let ns = "delta"

type 'e op = Add of 'e | Remove of string | Change of 'e

type t = {
  dl_base_ref : string;
  dl_version : Version.t;
  dl_arch : Config.arch;
  dl_flavor : Config.flavor;
  dl_gcc : int * int;
  dl_health : Diag.t list;
  dl_funcs : Surface.func_entry op list;
  dl_structs : Ds_ctypes.Decl.struct_def op list;
  dl_tracepoints : Surface.tp_entry op list;
  dl_syscalls : string op list;
}

type counts = { dc_adds : int; dc_removes : int; dc_changes : int }

let counts d =
  let tally acc ops =
    List.fold_left
      (fun c -> function
        | Add _ -> { c with dc_adds = c.dc_adds + 1 }
        | Remove _ -> { c with dc_removes = c.dc_removes + 1 }
        | Change _ -> { c with dc_changes = c.dc_changes + 1 })
      acc ops
  in
  let z = { dc_adds = 0; dc_removes = 0; dc_changes = 0 } in
  let c = tally z d.dl_funcs in
  let c = tally c d.dl_structs in
  let c = tally c d.dl_tracepoints in
  tally c d.dl_syscalls

let digest s = Ds_store.Store.Hash.digest (Codec.encode_surface s)

(* ------------------------------ diffing ------------------------------ *)

(* merge-join two name-sorted entry lists into an op list (itself emitted
   in ascending name order). Entries are compared structurally: any
   difference at all becomes a [Change] carrying the full new entry, which
   is what makes [apply] reconstruct byte-identical surfaces — diff-level
   "changed" semantics (non-empty change reasons) are recovered in
   [to_diff]. *)
let merge_ops ~name base next =
  let rec go acc bs ns =
    match (bs, ns) with
    | [], [] -> List.rev acc
    | [], n :: ns -> go (Add n :: acc) [] ns
    | b :: bs, [] -> go (Remove (name b) :: acc) bs []
    | b :: bs', n :: ns' ->
        let c = compare (name b) (name n) in
        if c < 0 then go (Remove (name b) :: acc) bs' ns
        else if c > 0 then go (Add n :: acc) bs ns'
        else go (if b = n then acc else Change n :: acc) bs' ns'
  in
  go [] base next

let diff_surfaces ~base (next : Surface.t) =
  {
    dl_base_ref = digest base;
    dl_version = next.Surface.s_version;
    dl_arch = next.Surface.s_arch;
    dl_flavor = next.Surface.s_flavor;
    dl_gcc = next.Surface.s_gcc;
    dl_health = next.Surface.s_health;
    dl_funcs =
      merge_ops
        ~name:(fun (f : Surface.func_entry) -> f.fe_name)
        base.Surface.s_funcs next.Surface.s_funcs;
    dl_structs =
      merge_ops
        ~name:(fun (s : Ds_ctypes.Decl.struct_def) -> s.sname)
        base.Surface.s_structs next.Surface.s_structs;
    dl_tracepoints =
      merge_ops
        ~name:(fun (t : Surface.tp_entry) -> t.te_name)
        base.Surface.s_tracepoints next.Surface.s_tracepoints;
    dl_syscalls = merge_ops ~name:Fun.id base.Surface.s_syscalls next.Surface.s_syscalls;
  }

(* ------------------------------ framing ------------------------------ *)

let w_op w_entry w = function
  | Add e ->
      W.u8 w 0;
      w_entry w e
  | Remove n ->
      W.u8 w 1;
      Codec_base.w_str w n
  | Change e ->
      W.u8 w 2;
      w_entry w e

let r_op r_entry r =
  match R.u8 r with
  | 0 -> Add (r_entry r)
  | 1 -> Remove (Codec_base.r_str r)
  | 2 -> Change (r_entry r)
  | n -> Codec_base.fail "delta op tag %d" n

let encode d =
  let open Codec_base in
  let w = W.create () in
  W.uleb128 w codec_version;
  w_str w d.dl_base_ref;
  w_version w d.dl_version;
  W.u8 w (arch_tag d.dl_arch);
  W.u8 w (flavor_tag d.dl_flavor);
  W.uleb128 w (fst d.dl_gcc);
  W.uleb128 w (snd d.dl_gcc);
  w_list w w_diag d.dl_health;
  w_list w (w_op w_func_entry) d.dl_funcs;
  w_list w (w_op w_struct_def) d.dl_structs;
  w_list w (w_op w_tp_entry) d.dl_tracepoints;
  w_list w (w_op w_str) d.dl_syscalls;
  W.contents w

let decode data =
  let open Codec_base in
  let r = R.of_string data in
  let v = R.uleb128 r in
  if v <> codec_version then fail "delta codec version %d (expected %d)" v codec_version;
  let dl_base_ref = r_str r in
  let dl_version = r_version r in
  let dl_arch = arch_of_tag (R.u8 r) in
  let dl_flavor = flavor_of_tag (R.u8 r) in
  let gcc_major = R.uleb128 r in
  let gcc_minor = R.uleb128 r in
  let dl_health = r_list r r_diag in
  let dl_funcs = r_list r (r_op r_func_entry) in
  let dl_structs = r_list r (r_op r_struct_def) in
  let dl_tracepoints = r_list r (r_op r_tp_entry) in
  let dl_syscalls = r_list r (r_op r_str) in
  expect_eof r;
  {
    dl_base_ref;
    dl_version;
    dl_arch;
    dl_flavor;
    dl_gcc = (gcc_major, gcc_minor);
    dl_health;
    dl_funcs;
    dl_structs;
    dl_tracepoints;
    dl_syscalls;
  }

(* ------------------------------ applying ----------------------------- *)

(* [Surface.v] re-sorts funcs/structs/tracepoints, so those sections can
   be rebuilt as filter + append; syscalls pass through [Surface.v]
   untouched, so their ops are replayed as an ordered merge to land in
   the same (sorted) positions the next surface's own encoding has. *)
let apply_section ~name base ops =
  let dropped = Hashtbl.create 16 in
  let fresh =
    List.filter_map
      (function
        | Add e | Change e -> Some e
        | Remove n ->
            Hashtbl.replace dropped n ();
            None)
      ops
  in
  List.iter (function Change e -> Hashtbl.replace dropped (name e) () | _ -> ()) ops;
  List.filter (fun e -> not (Hashtbl.mem dropped (name e))) base @ fresh

let apply_syscalls base ops =
  let rec go acc base ops =
    match (base, ops) with
    | rest, [] -> List.rev_append acc rest
    | [], Add n :: ops -> go (n :: acc) [] ops
    | [], (Remove n | Change n) :: _ -> Codec_base.fail "syscall op for absent %s" n
    | b :: base', op :: ops' -> (
        match op with
        | Add n when compare n b <= 0 -> go (n :: acc) base ops'
        | Add _ -> go (b :: acc) base' ops
        | Remove n when n = b -> go acc base' ops'
        | Remove n when compare n b < 0 -> Codec_base.fail "syscall op for absent %s" n
        | Remove _ -> go (b :: acc) base' ops
        | Change n -> Codec_base.fail "syscall change op for %s" n)
  in
  go [] base ops

let apply ~base d =
  let base_ref = digest base in
  if d.dl_base_ref <> base_ref then
    Codec_base.fail "delta applied to wrong base (have %s, delta expects %s)" base_ref
      d.dl_base_ref;
  let funcs =
    apply_section
      ~name:(fun (f : Surface.func_entry) -> f.fe_name)
      base.Surface.s_funcs d.dl_funcs
  in
  let structs =
    apply_section
      ~name:(fun (s : Ds_ctypes.Decl.struct_def) -> s.sname)
      base.Surface.s_structs d.dl_structs
  in
  let tracepoints =
    apply_section
      ~name:(fun (t : Surface.tp_entry) -> t.te_name)
      base.Surface.s_tracepoints d.dl_tracepoints
  in
  let syscalls = apply_syscalls base.Surface.s_syscalls d.dl_syscalls in
  Surface.with_health d.dl_health
    (Surface.v ~version:d.dl_version ~arch:d.dl_arch ~flavor:d.dl_flavor ~gcc:d.dl_gcc ~funcs
       ~structs ~tracepoints ~syscalls)

(* ----------------------------- derived views ------------------------- *)

let section_diff ~name ~changes base ops =
  let added = List.filter_map (function Add e -> Some (name e) | _ -> None) ops in
  let removed = List.filter_map (function Remove n -> Some n | _ -> None) ops in
  let changed =
    List.filter_map
      (function
        | Change e -> (
            match changes (name e) e with [] -> None | cs -> Some (name e, cs))
        | _ -> None)
      ops
  in
  (* every base construct not removed is present on both sides; [Change]
     ops count as common, exactly as [Diff.compare_surfaces] counts them *)
  let d_common = List.length base - List.length removed in
  { Diff.d_common; d_added = added; d_removed = removed; d_changed = changed }

let to_diff ?(mode = Diff.Across_versions) ~base d =
  let df_funcs =
    section_diff
      ~name:(fun (f : Surface.func_entry) -> f.fe_name)
      ~changes:(fun n e ->
        match Surface.find_func base n with
        | Some old ->
            Diff.func_changes (Surface.representative_proto old)
              (Surface.representative_proto e)
        | None -> [])
      base.Surface.s_funcs d.dl_funcs
  in
  let df_structs =
    section_diff
      ~name:(fun (s : Ds_ctypes.Decl.struct_def) -> s.sname)
      ~changes:(fun n e ->
        match Surface.find_struct base n with
        | Some old -> Diff.field_changes mode old e
        | None -> [])
      base.Surface.s_structs d.dl_structs
  in
  let df_tracepoints =
    section_diff
      ~name:(fun (t : Surface.tp_entry) -> t.te_name)
      ~changes:(fun n e ->
        match Surface.find_tracepoint base n with
        | Some old -> Diff.tp_changes mode old e
        | None -> [])
      base.Surface.s_tracepoints d.dl_tracepoints
  in
  let df_syscalls =
    section_diff ~name:Fun.id ~changes:(fun _ _ -> []) base.Surface.s_syscalls d.dl_syscalls
  in
  { Diff.df_funcs; df_structs; df_tracepoints; df_syscalls }

let changed_deps d =
  let deps = ref [] in
  let push dep = deps := dep :: !deps in
  let scan f name ops =
    List.iter
      (function Remove n -> push (f n) | Change e -> push (f (name e)) | Add _ -> ())
      ops
  in
  scan (fun n -> Depset.Dep_func n) (fun (f : Surface.func_entry) -> f.fe_name) d.dl_funcs;
  scan
    (fun n -> Depset.Dep_struct n)
    (fun (s : Ds_ctypes.Decl.struct_def) -> s.sname)
    d.dl_structs;
  scan
    (fun n -> Depset.Dep_tracepoint n)
    (fun (t : Surface.tp_entry) -> t.te_name)
    d.dl_tracepoints;
  scan (fun n -> Depset.Dep_syscall n) Fun.id d.dl_syscalls;
  List.sort_uniq Depset.compare_dep !deps
