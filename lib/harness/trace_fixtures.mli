(** Golden-trace fixtures for the interpreting machine.

    The machine's correctness oracle is *trace identity*: for a fixed
    (program form, policy, seed, fuel, perturbation) the machine must
    produce the exact same event sequence, forever.  This module owns the
    deterministic fixture enumeration — workload catalog × policies ×
    seeds, plus chaos-perturbed runs — and the per-run summaries
    ({!Arde.Trace.hash} + length, steps, outcome) that get committed to
    [test/fixtures/machine_traces.txt] and re-checked by
    [test_machine_diff] after every interpreter change. *)

type summary = {
  fx_length : int;  (** events in the trace *)
  fx_hash : int;  (** {!Arde.Trace.hash} of the trace *)
  fx_steps : int;  (** machine steps executed *)
  fx_outcome : string;  (** pretty-printed outcome *)
}

type run_spec = {
  rs_key : string;  (** unique, stable fixture key *)
  rs_policy : Arde.Sched.policy;
  rs_seed : int;
  rs_fuel : int;
  rs_spurious : bool;
  rs_inject_at : int option;
      (** raise a machine fault at the Nth observed event *)
}

type group = {
  g_name : string;
  g_program : Arde.Types.program;
      (** already lowered where the form wants it *)
  g_instrument : Arde.Instrument.t option;
  g_runs : run_spec list;
}

type impl = {
  mi_name : string;
  mi_run_group : group -> (string * summary) list;
}

val groups : unit -> group list
(** The full fixture enumeration: every racey case in raw and
    nolib-lowered form × 3 policies × 16 seeds, a raw+spin(7) form on a
    cross-section, all PARSEC programs × 4 seeds, and chaos variants
    (spurious wakeups, starved fuel, adversarial policies, injected
    faults) on a cross-section. *)

val rawspin_group :
  string -> Arde.Types.program -> seeds:int list -> group
(** The raw program with spin(7) instrumentation (the lib+spin modes'
    form) × 3 policies × [seeds]; {!groups} uses it on a cross-section
    of the catalog. *)

val current_machine : impl
(** {!Arde.Machine}. *)

val reference_machine : impl
(** {!Arde.Machine_ref}, the frozen oracle. *)

val run_all : impl -> (string * summary) list

val write_file : string -> (string * summary) list -> unit
val read_file : string -> (string * summary) list
