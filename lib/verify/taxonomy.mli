(** The taxonomy views over {!Ds_bpf.Verifier.rule}, the closed set of
    load-time rejections: the seventeen the verifier produces, the two
    kfunc checks of {!Ds_bpf.Loader.check_prog} (index out of range,
    name absent from the target kernel's BTF), and a malformed
    instruction stream that never decoded at all. Every rejection
    {!Verify} produces carries exactly one rule — the fuzz harness
    asserts the set is closed (no "unclassified" leaks) by
    round-tripping {!id}/{!of_id}.

    Rules split into {e program-induced} (the bytecode is wrong on any
    kernel) and {e dependency-induced} (the program is fine, the target
    kernel lacks the helper/kfunc — the paper's instability surface).
    For the latter, {!suggestion} consults {!Depsurf.Compat}'s stable
    probe registry and names the probe that would bridge the gap. *)

val all : Ds_bpf.Verifier.rule list
(** Every rule, in declaration order. *)

val id : Ds_bpf.Verifier.rule -> string
(** Stable kebab-case identifier, e.g. ["unsafe-load-scalar"]; the key
    used in JSON reports, [depsurf mutate --survey] tallies and the
    fuzz-campaign tallies. *)

val of_id : string -> Ds_bpf.Verifier.rule option
(** Inverse of {!id}. *)

val describe : Ds_bpf.Verifier.rule -> string
(** One-line description for the taxonomy table. *)

val dependency_induced : Ds_bpf.Verifier.rule -> bool
(** True for {!Ds_bpf.Verifier.Unknown_helper} and
    {!Ds_bpf.Verifier.Unknown_kfunc}: the program would
    load on a kernel that has the dependency. *)

val suggestion : ?section:string -> ?detail:string -> Ds_bpf.Verifier.rule -> string
(** The {e suggested bridge}: a concrete rewrite or mitigation for each
    rule ("route the scalar through [bpf_probe_read]", "hoist the bound
    check before the load", ...). [detail] names the missing helper or
    kfunc; for dependency-induced rules with a [section] (the program's
    attach section), the {!Depsurf.Compat} registry is consulted and the
    covering stable probe, when one exists, is appended to the hint. *)
