open Ds_util
open Ds_bpf

let component = "verify"

type finding = {
  fd_rule : Verifier.rule;
  fd_insn : int;
  fd_msg : string;
  fd_window : (int * string) list;
  fd_regs : (string * string) list;
  fd_trail : (int * bool) list;
  fd_suggestion : string;
}

type prog_report = {
  pr_name : string;
  pr_section : string;
  pr_insns : int;
  pr_finding : finding option;
}

type report = {
  rp_obj : string;
  rp_kernel : string option;
  rp_digest : string;
  rp_progs : prog_report list;
  rp_diags : Diag.t list;
}

let digest = Ds_store.Store.Hash.digest

(* ---------------------------- findings ------------------------------- *)

let window insns at =
  if at < 0 then []
  else begin
    let arr = Array.of_list insns in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      let lo = max 0 (at - 2) and hi = min (n - 1) (at + 2) in
      List.init (hi - lo + 1) (fun k ->
          let i = lo + k in
          (i, Disasm.line i arr.(i)))
    end
  end

let reg_state_str = function
  | Verifier.Uninit -> "uninit"
  | Verifier.Scalar -> "scalar"
  | Verifier.Ctx -> "ctx"
  | Verifier.Stack -> "stack"

let regs_render = function
  | None -> []
  | Some a ->
      List.init (Array.length a) (fun i -> (Printf.sprintf "r%d" i, reg_state_str a.(i)))

let of_rejection ?section ?(kfuncs = []) insns (r : Verifier.rejection) =
  (* name the missing helper, or the missing kfunc from the program's
     [kfuncs] table, in the suggestion when we can see the call;
     [rj_insn] is [-1] on whole-program rejections ([nth_opt] raises on
     negative indices, it does not answer [None]) *)
  let detail =
    if r.Verifier.rj_insn < 0 then None
    else
      match (r.Verifier.rj_rule, List.nth_opt insns r.Verifier.rj_insn) with
      | Verifier.Unknown_helper, Some (Insn.Call id) -> Some (string_of_int id)
      | Verifier.Unknown_kfunc, Some (Insn.Kfunc_call k) -> List.nth_opt kfuncs k
      | _ -> None
  in
  {
    fd_rule = r.Verifier.rj_rule;
    fd_insn = r.Verifier.rj_insn;
    fd_msg = r.Verifier.rj_msg;
    fd_window = window insns r.Verifier.rj_insn;
    fd_regs = regs_render r.Verifier.rj_regs;
    fd_trail = r.Verifier.rj_trail;
    fd_suggestion = Taxonomy.suggestion ?section ?detail r.Verifier.rj_rule;
  }

let verify_insns ?section insns =
  match Verifier.verify insns with
  | Ok () -> None
  | Error r -> Some (of_rejection ?section insns r)

let verify_stream ?section bytes =
  match Insn.decode bytes with
  | exception Insn.Bad_insn msg ->
      Some
        (of_rejection ?section []
           {
             Verifier.rj_rule = Verifier.Malformed_insn;
             rj_insn = -1;
             rj_msg = msg;
             rj_regs = None;
             rj_trail = [];
           })
  | insns -> verify_insns ?section insns

let verify_prog ?kernel (p : Obj.prog) =
  match Loader.check_prog ?kernel p with
  | Ok () -> None
  | Error r ->
      Some (of_rejection ~section:p.Obj.p_section ~kfuncs:p.Obj.p_kfuncs p.Obj.p_insns r)

let verify_bytes ?kernel bytes =
  let outcome = Obj.read ~mode:`Lenient bytes in
  let obj = Diag.ok outcome in
  let progs =
    List.map
      (fun (p : Obj.prog) ->
        {
          pr_name = p.Obj.p_name;
          pr_section = p.Obj.p_section;
          pr_insns = List.length p.Obj.p_insns;
          pr_finding = verify_prog ?kernel p;
        })
      obj.Obj.o_progs
  in
  let rejection_diags =
    List.filter_map
      (fun pr ->
        Option.map
          (fun f ->
            Diag.v ~context:pr.pr_name
              ?offset:(if f.fd_insn >= 0 then Some f.fd_insn else None)
              Diag.Degraded ~component
              (Printf.sprintf "%s rejected: %s (%s)" pr.pr_name f.fd_msg
                 (Taxonomy.id f.fd_rule)))
          pr.pr_finding)
      progs
  in
  {
    rp_obj = obj.Obj.o_name;
    rp_kernel = Option.map Vmlinux.tag kernel;
    rp_digest = digest bytes;
    rp_progs = progs;
    rp_diags = Diag.diags outcome @ rejection_diags;
  }

(* no store tier and no in-process table: verifying takes microseconds
   and the bytes are client input; the server's response cache answers a
   repeated object *)
let of_dataset ds v cfg bytes = verify_bytes ~kernel:(Depsurf.Dataset.vmlinux ds v cfg) bytes

(* ------------------------------- views ------------------------------- *)

let findings rep =
  List.filter_map (fun pr -> Option.map (fun f -> (pr, f)) pr.pr_finding) rep.rp_progs

let finding_json f =
  Json.Obj
    [
      ("rule", Json.String (Taxonomy.id f.fd_rule));
      ("dependency_induced", Json.Bool (Taxonomy.dependency_induced f.fd_rule));
      ("insn", Json.Int f.fd_insn);
      ("msg", Json.String f.fd_msg);
      ("window", Json.List (List.map (fun (_, l) -> Json.String l) f.fd_window));
      ("regs", Json.Obj (List.map (fun (r, s) -> (r, Json.String s)) f.fd_regs));
      ( "trail",
        Json.List
          (List.map
             (fun (i, taken) ->
               Json.Obj [ ("insn", Json.Int i); ("taken", Json.Bool taken) ])
             f.fd_trail) );
      ("suggestion", Json.String f.fd_suggestion);
    ]

let prog_json pr =
  Json.Obj
    ([
       ("name", Json.String pr.pr_name);
       ("section", Json.String pr.pr_section);
       ("insns", Json.Int pr.pr_insns);
       ( "verdict",
         Json.String (match pr.pr_finding with None -> "accepted" | Some _ -> "rejected") );
     ]
    @ match pr.pr_finding with None -> [] | Some f -> [ ("rejection", finding_json f) ])

let report_json rep =
  let rejected = List.length (findings rep) in
  Json.Obj
    [
      ("object", Json.String rep.rp_obj);
      ("kernel", match rep.rp_kernel with Some k -> Json.String k | None -> Json.Null);
      ("digest", Json.String rep.rp_digest);
      ("accepted", Json.Int (List.length rep.rp_progs - rejected));
      ("rejected", Json.Int rejected);
      ("programs", Json.List (List.map prog_json rep.rp_progs));
    ]

let envelope rep = Depsurf.Api.of_diags ~data:(report_json rep) rep.rp_diags

let render rep =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "object %s  digest %s%s\n" rep.rp_obj
    (String.sub rep.rp_digest 0 (min 12 (String.length rep.rp_digest)))
    (match rep.rp_kernel with Some k -> "  kernel " ^ k | None -> "");
  List.iter
    (fun pr ->
      match pr.pr_finding with
      | None -> pf "  %-24s %-36s ok (%d insns)\n" pr.pr_name pr.pr_section pr.pr_insns
      | Some f ->
          pf "  %-24s %-36s REJECTED: %s\n" pr.pr_name pr.pr_section (Taxonomy.id f.fd_rule);
          pf "      %s\n"
            (if f.fd_insn >= 0 then Printf.sprintf "at insn %d: %s" f.fd_insn f.fd_msg
             else f.fd_msg);
          List.iter
            (fun (i, l) -> pf "      %s%s\n" l (if i = f.fd_insn then "   <-- here" else ""))
            f.fd_window;
          (let live = List.filter (fun (_, s) -> s <> "uninit") f.fd_regs in
           if live <> [] then
             pf "      regs: %s\n"
               (String.concat " " (List.map (fun (r, s) -> r ^ "=" ^ s) live)));
          if f.fd_trail <> [] then
            pf "      path: %s\n"
              (String.concat " -> "
                 (List.map
                    (fun (i, taken) ->
                      Printf.sprintf "%d:%s" i (if taken then "taken" else "fall"))
                    f.fd_trail));
          pf "      hint: %s\n" f.fd_suggestion)
    rep.rp_progs;
  Buffer.contents buf

(* --------------------------- fuzz campaigns -------------------------- *)

type campaign = {
  cp_total : int;
  cp_accepted : int;
  cp_rejected : int;
  cp_crashed : (string * string) list;
  cp_unclassified : int;
  cp_rules : (string * int) list;
}

let merge a b =
  let tally =
    List.fold_left
      (fun acc (k, v) ->
        (k, v + Option.value ~default:0 (List.assoc_opt k acc))
        :: List.remove_assoc k acc)
      a.cp_rules b.cp_rules
  in
  {
    cp_total = a.cp_total + b.cp_total;
    cp_accepted = a.cp_accepted + b.cp_accepted;
    cp_rejected = a.cp_rejected + b.cp_rejected;
    cp_crashed = a.cp_crashed @ b.cp_crashed;
    cp_unclassified = a.cp_unclassified + b.cp_unclassified;
    cp_rules = List.sort compare tally;
  }

(* a finding "classifies" when its rule id round-trips through the
   closed taxonomy and it carries a suggestion — the no-leak contract *)
let classified f =
  Taxonomy.of_id (Taxonomy.id f.fd_rule) = Some f.fd_rule && f.fd_suggestion <> ""

let run_campaign muts check =
  let total = ref 0 and accepted = ref 0 and rejected = ref 0 in
  let unclassified = ref 0 in
  let crashed = ref [] in
  let rules : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (m : Ds_faultgen.Faultgen.mutation) ->
      incr total;
      match check m.Ds_faultgen.Faultgen.mut_bytes with
      | exception e -> crashed := (m.Ds_faultgen.Faultgen.mut_name, Printexc.to_string e) :: !crashed
      | [] -> incr accepted
      | fs ->
          incr rejected;
          List.iter
            (fun f ->
              if not (classified f) then incr unclassified
              else begin
                let id = Taxonomy.id f.fd_rule in
                Hashtbl.replace rules id
                  (1 + Option.value ~default:0 (Hashtbl.find_opt rules id))
              end)
            fs)
    muts;
  {
    cp_total = !total;
    cp_accepted = !accepted;
    cp_rejected = !rejected;
    cp_crashed = List.rev !crashed;
    cp_unclassified = !unclassified;
    cp_rules = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rules []);
  }

let campaign_insns ?count ~seed (p : Obj.prog) =
  let data = Insn.encode p.Obj.p_insns in
  let muts = Ds_faultgen.Faultgen.bytecode_mutations ?count ~seed data in
  run_campaign muts (fun bytes ->
      match verify_stream ~section:p.Obj.p_section bytes with
      | None -> []
      | Some f -> [ f ])

let campaign_obj ?count ~seed ?kernel bytes =
  let muts = Ds_faultgen.Faultgen.mutations ?count ~seed bytes in
  run_campaign muts (fun b -> List.map snd (findings (verify_bytes ?kernel b)))
