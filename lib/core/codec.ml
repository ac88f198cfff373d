(* Public codec = the base (surface/diff) codec plus the report-matrix
   codec. Split into two compilation units because [Dataset] needs the
   surface codec while [Report] needs [Dataset]: keeping the matrix part
   here (and only here) breaks that cycle. *)

include Codec_base

(* ----------------------------- matrices ------------------------------ *)

(* one tagging for both string encodings: [str] writes (or reads) a
   string, length-prefixed in {!Prim} payloads, a table index in a
   matrix *)
let w_dep_with str w (dep : Depset.dep) =
  match dep with
  | Dep_func s ->
      W.u8 w 0;
      str s
  | Dep_struct s ->
      W.u8 w 1;
      str s
  | Dep_field (s, f) ->
      W.u8 w 2;
      str s;
      str f
  | Dep_tracepoint s ->
      W.u8 w 3;
      str s
  | Dep_syscall s ->
      W.u8 w 4;
      str s

let r_dep_with str r : Depset.dep =
  match R.u8 r with
  | 0 -> Dep_func (str ())
  | 1 -> Dep_struct (str ())
  | 2 ->
      let s = str () in
      let f = str () in
      Dep_field (s, f)
  | 3 -> Dep_tracepoint (str ())
  | 4 -> Dep_syscall (str ())
  | n -> fail "dep tag %d" n

let w_status e (s : Report.status) =
  let tag n = W.u8 e.e_body n in
  match s with
  | St_ok -> tag 0
  | St_absent -> tag 1
  | St_changed reasons ->
      tag 2;
      e_list e e_str reasons
  | St_full_inline -> tag 3
  | St_selective_inline -> tag 4
  | St_transformed -> tag 5
  | St_duplicated -> tag 6
  | St_collision -> tag 7

let r_status d : Report.status =
  match R.u8 d.d_r with
  | 0 -> St_ok
  | 1 -> St_absent
  | 2 -> St_changed (d_list d d_str)
  | 3 -> St_full_inline
  | 4 -> St_selective_inline
  | 5 -> St_transformed
  | 6 -> St_duplicated
  | 7 -> St_collision
  | n -> fail "status tag %d" n

let w_image w (v, cfg) =
  w_version w v;
  w_config w cfg

let r_image r =
  let v = r_version r in
  let cfg = r_config r in
  (v, cfg)

let encode_matrix =
  encode_payload (fun e (m : Report.matrix) ->
      e_str e m.m_obj_name;
      w_image e.e_body m.m_baseline;
      e_list e
        (fun e (row : Report.dep_row) ->
          w_dep_with (e_str e) e.e_body row.r_dep;
          e_list e
            (fun e (c : Report.cell) ->
              w_image e.e_body c.c_image;
              e_list e w_status c.c_statuses;
              w_bool e.e_body c.c_degraded)
            row.r_cells)
        m.m_rows)

let decode_matrix =
  decode_payload (fun d : Report.matrix ->
      let m_obj_name = d_str d in
      let m_baseline = r_image d.d_r in
      let m_rows =
        d_list d (fun d ->
            let r_dep = r_dep_with (fun () -> d_str d) d.d_r in
            let r_cells =
              d_list d (fun d ->
                  let c_image = r_image d.d_r in
                  let c_statuses = d_list d r_status in
                  let c_degraded = r_bool d.d_r in
                  ({ c_image; c_statuses; c_degraded } : Report.cell))
            in
            ({ r_dep; r_cells } : Report.dep_row))
      in
      { m_obj_name; m_baseline; m_rows })

(* Primitive helpers re-exported for sibling codecs (ds_graph) that
   frame their own length-prefixed payloads but share this codec's
   conventions (and its [Decode_error] discipline). *)
module Prim = struct
  let w_str = w_str
  let r_str = r_str
  let w_bool = w_bool
  let r_bool = r_bool
  let w_list = w_list
  let r_list = r_list
  let w_opt = w_opt
  let r_opt = r_opt
  let w_version = w_version
  let r_version = r_version
  let w_config = w_config
  let r_config = r_config
  let w_dep w dep = w_dep_with (w_str w) w dep
  let r_dep r = r_dep_with (fun () -> r_str r) r
  let expect_eof = expect_eof
  let fail = fail
end
