(* Golden-trace fixtures for the interpreting machine.

   The detection engines are pinned by report identity (test_engine_diff);
   the machine is pinned one level deeper, by *trace identity*: the exact
   event sequence it produces for a given (program, policy, seed, fuel,
   perturbation).  Every optimization of the interpreter must reproduce
   these traces bit for bit — a change in trace identity silently changes
   every schedule, every report and every experiment downstream, even when
   each individual run still "looks right".

   This module owns the fixture *enumeration* (which runs are pinned) and
   the fixture *summaries* (trace hash + length, steps, outcome).  The
   enumeration is deterministic, so the generator (`bench fixtures`) and
   the checker (`test_machine_diff`) always agree on the key set.  The
   machine implementation is passed in as a first-class record, which lets
   the same enumeration drive the optimized {!Arde.Machine} and the frozen
   {!Arde_runtime.Machine_ref} oracle. *)

module Machine = Arde.Machine
module Sched = Arde.Sched
module Trace = Arde.Trace

type summary = {
  fx_length : int; (* events in the trace *)
  fx_hash : int; (* Trace.hash *)
  fx_steps : int; (* machine steps executed *)
  fx_outcome : string; (* pretty-printed outcome *)
}

type run_spec = {
  rs_key : string; (* unique, stable fixture key *)
  rs_policy : Sched.policy;
  rs_seed : int;
  rs_fuel : int;
  rs_spurious : bool;
  rs_inject_at : int option; (* raise a machine fault at the Nth event *)
}

type group = {
  g_name : string;
  g_program : Arde.Types.program; (* already lowered where the form wants it *)
  g_instrument : Arde.Instrument.t option;
  g_runs : run_spec list;
}

type impl = { mi_name : string; mi_run_group : group -> (string * summary) list }

(* ------------------------------------------------------------------ *)
(* Enumeration                                                        *)

let policies =
  [ ("rr3", Sched.Round_robin 3); ("uniform", Sched.Uniform); ("chunked6", Sched.Chunked 6) ]

let chaos_policies = [ ("rr1", Sched.Round_robin 1); ("chunked64", Sched.Chunked 64) ]

let seeds n = List.init n (fun i -> i + 1)

let fixture_fuel = 50_000

let spec ?(fuel = fixture_fuel) ?(spurious = false) ?inject_at name pname policy seed =
  {
    rs_key =
      Printf.sprintf "%s|%s|%d|%d|%s%s" name pname seed fuel
        (if spurious then "sw" else "-")
        (match inject_at with None -> "" | Some n -> Printf.sprintf "|f@%d" n);
    rs_policy = policy;
    rs_seed = seed;
    rs_fuel = fuel;
    rs_spurious = spurious;
    rs_inject_at = inject_at;
  }

let grid name ~seeds:ss =
  List.concat_map
    (fun (pname, policy) -> List.map (spec name pname policy) ss)
    policies

let raw_group name program ~seeds:ss =
  {
    g_name = name ^ "/raw";
    g_program = program;
    g_instrument = None;
    g_runs = grid (name ^ "/raw") ~seeds:ss;
  }

let rawspin_group name program ~seeds:ss =
  {
    g_name = name ^ "/rawspin";
    g_program = program;
    g_instrument = Some (Arde.Instrument.analyze ~k:7 program);
    g_runs = grid (name ^ "/rawspin") ~seeds:ss;
  }

let nolib_group ?(style = Arde.Lower.Realistic) name program ~seeds:ss =
  let lowered = Arde.Lower.lower ~style program in
  {
    g_name = name ^ "/nolib";
    g_program = lowered;
    g_instrument = Some (Arde.Instrument.analyze ~k:7 lowered);
    g_runs = grid (name ^ "/nolib") ~seeds:ss;
  }

(* Machine-level perturbations, on the lowered+instrumented form: spurious
   condition-variable wakeups, starved fuel (livelock/exhaustion paths),
   adversarial schedules, and a deterministic fault injected mid-trace by
   an observer — the machine must truncate and attribute identically. *)
let chaos_group name program =
  let lowered = Arde.Lower.lower ~style:Arde.Lower.Realistic program in
  let gname = name ^ "/chaos" in
  let runs =
    List.map
      (fun seed -> spec ~spurious:true gname "chunked6" (Sched.Chunked 6) seed)
      (seeds 16)
    @ List.map
        (fun seed -> spec ~fuel:2_000 gname "chunked6" (Sched.Chunked 6) seed)
        (seeds 16)
    @ List.concat_map
        (fun (pname, policy) -> List.map (spec gname pname policy) (seeds 8))
        chaos_policies
    @ List.map
        (fun seed ->
          spec ~inject_at:200 gname "chunked6" (Sched.Chunked 6) seed)
        (seeds 8)
  in
  {
    g_name = gname;
    g_program = lowered;
    g_instrument = Some (Arde.Instrument.analyze ~k:7 lowered);
    g_runs = runs;
  }

let groups () =
  let racey = Arde_workloads.Racey.all () in
  let catalog =
    List.concat_map
      (fun (c : Arde_workloads.Racey.case) ->
        [
          raw_group c.Arde_workloads.Racey.name c.Arde_workloads.Racey.program
            ~seeds:(seeds 16);
          nolib_group c.Arde_workloads.Racey.name c.Arde_workloads.Racey.program
            ~seeds:(seeds 16);
        ])
      racey
  in
  (* the raw+instrumented form (lib+spin modes) on a cross-section *)
  let rawspin =
    List.filteri (fun i _ -> i mod 3 = 0) racey
    |> List.map (fun (c : Arde_workloads.Racey.case) ->
           rawspin_group c.Arde_workloads.Racey.name
             c.Arde_workloads.Racey.program ~seeds:(seeds 16))
  in
  let parsec =
    List.concat_map
      (fun ((info : Arde_workloads.Parsec.info), p) ->
        [
          raw_group info.Arde_workloads.Parsec.pname p ~seeds:(seeds 4);
          nolib_group ~style:info.Arde_workloads.Parsec.nolib_style
            info.Arde_workloads.Parsec.pname p ~seeds:(seeds 4);
        ])
      (Arde_workloads.Parsec.all ())
  in
  let chaos =
    List.filteri (fun i _ -> i mod 12 = 0) racey
    |> List.map (fun (c : Arde_workloads.Racey.case) ->
           chaos_group c.Arde_workloads.Racey.name
             c.Arde_workloads.Racey.program)
  in
  catalog @ rawspin @ parsec @ chaos

(* ------------------------------------------------------------------ *)
(* Running one spec through a machine implementation                  *)

let inject_loc n =
  { Arde.Types.lfunc = "<fixture>"; lblk = "inject"; lidx = n }

(* [make_impl ~name ~compile ~run] packages a machine implementation.
   Compilation happens once per group; each spec then runs with a fresh
   trace observer (injection, when requested, is teed in *ahead* of the
   trace, mirroring the driver's ordering: the fault fires before the
   triggering event is recorded). *)
let make_impl ~name ~(compile : Arde.Types.program -> 'c)
    ~(run : Machine.config -> 'c -> Machine.result) : impl =
  let run_spec compiled instrument rs =
    let trace = Trace.create () in
    let observer =
      match rs.rs_inject_at with
      | None -> Trace.push trace
      | Some n ->
          let count = ref 0 in
          fun ev ->
            incr count;
            if !count = n then
              raise
                (Machine.Fault_exn (inject_loc n, "fixture: injected fault"));
            Trace.push trace ev
    in
    let cfg =
      {
        Machine.policy = rs.rs_policy;
        seed = rs.rs_seed;
        fuel = rs.rs_fuel;
        instrument;
        spurious_wakeups = rs.rs_spurious;
        observer;
      }
    in
    let res = run cfg compiled in
    {
      fx_length = Trace.length trace;
      fx_hash = Trace.hash trace;
      fx_steps = res.Machine.steps;
      fx_outcome = Format.asprintf "%a" Machine.pp_outcome res.Machine.outcome;
    }
  in
  {
    mi_name = name;
    mi_run_group =
      (fun g ->
        let compiled = compile g.g_program in
        List.map
          (fun rs -> (rs.rs_key, run_spec compiled g.g_instrument rs))
          g.g_runs);
  }

let current_machine =
  make_impl ~name:"machine" ~compile:Machine.compile ~run:Machine.run

let reference_machine =
  make_impl ~name:"machine_ref" ~compile:Arde.Machine_ref.compile
    ~run:Arde.Machine_ref.run

let run_all impl = List.concat_map impl.mi_run_group (groups ())

(* ------------------------------------------------------------------ *)
(* On-disk form: one line per fixture, tab-separated                  *)

let encode_line (key, s) =
  Printf.sprintf "%s\t%d\t%d\t%d\t%s" key s.fx_length s.fx_hash s.fx_steps
    s.fx_outcome

let parse_line line =
  match String.split_on_char '\t' line with
  | key :: len :: hash :: steps :: rest when rest <> [] ->
      let outcome = String.concat "\t" rest in
      Option.bind (int_of_string_opt len) (fun l ->
          Option.bind (int_of_string_opt hash) (fun h ->
              Option.map
                (fun st ->
                  ( key,
                    {
                      fx_length = l;
                      fx_hash = h;
                      fx_steps = st;
                      fx_outcome = outcome;
                    } ))
                (int_of_string_opt steps)))
  | _ -> None

let write_file path rows =
  let oc = open_out path in
  output_string oc
    "# machine golden-trace fixtures: key<TAB>events<TAB>hash<TAB>steps<TAB>outcome\n";
  List.iter
    (fun row ->
      output_string oc (encode_line row);
      output_char oc '\n')
    rows;
  close_out oc

let read_file path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match parse_line line with
         | Some row -> rows := row :: !rows
         | None -> failwith (Printf.sprintf "bad fixture line: %s" line)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows
