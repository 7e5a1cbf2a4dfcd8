(* Timing floors: each gate times two sides of one workload in
   alternating order over [pairs] pairs and gates on the median per-pair
   ratio, so a host that slows down mid-run slows both sides of a pair
   alike instead of landing on one side's whole sample.  The workloads
   and bounds are the ones the paper's overhead argument leans on; see
   gates.mli for the list. *)

open Arde_tir.Types
module Config = Arde.Config
module Driver = Arde.Driver
module Event = Arde.Event
module Machine = Arde.Machine
module J = Arde.Json

type row = {
  gate : string;
  workload : string;
  mode : string;
  ratio : float;
  bound : float;
  pairs : int;
  q1 : float;
  median : float;
  q3 : float;
  pass : bool;
}

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let pairs = 11

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

(* Per-pair [num] time / [den] time, after one untimed warm-up of each
   side (lazy analyses, cache fills, heap growth). *)
let ratios ~num ~den =
  ignore (num ());
  ignore (den ());
  List.init pairs (fun i ->
      if i mod 2 = 0 then
        let tn = time num in
        tn /. time den
      else
        let td = time den in
        time num /. td)

type bound = At_least of float | At_most of float

let row ~gate ~workload mode bound rs =
  let a = Array.of_list (List.sort compare rs) in
  let n = Array.length a in
  let ratio = median rs in
  let bound, pass =
    match bound with
    | At_least b -> (b, ratio >= b)
    | At_most b -> (b, ratio <= b)
  in
  {
    gate;
    workload;
    mode;
    ratio;
    bound;
    pairs = n;
    q1 = a.(n / 4);
    median = ratio;
    q3 = a.(3 * n / 4);
    pass;
  }

(* ------------------------------------------------------------------ *)
(* Workload preparation                                               *)

let fuel = 200_000

let parsec name =
  match Arde_workloads.Parsec.find name with
  | Some w -> w
  | None -> failwith ("bench gates: no workload " ^ name)

(* The mode's program form and instrumentation, as the detection driver
   would prepare them. *)
let prep (info, program) mode =
  let program =
    if Config.needs_lowering mode then
      Arde.Lower.lower ~style:info.Arde_workloads.Parsec.nolib_style program
    else program
  in
  let instrument =
    match Config.spin_k mode with
    | Some k -> Some (Arde.Instrument.analyze ~k program)
    | None -> None
  in
  (program, instrument)

(* Built from [default_config], the config keeps the default observer
   physically intact, which is what arms the machine's quiet fast path. *)
let quiet_config instrument =
  { Machine.default_config with Machine.seed = 1; fuel; instrument }

(* ------------------------------------------------------------------ *)
(* Synthetic high-thread-count streams.  Two shapes, matching where the
   fine-grained-lens cost model says joins dominate:

   - barrier-heavy: every round each thread writes its slot, crosses a
     barrier (an O(threads) accumulated clock every generation), reads a
     neighbour's slot, and crosses a second barrier so rounds stay
     race-free.  Both engines pay the full-width join on every pass.
   - join-heavy: after one barrier widens every clock to full length, a
     writer republishes an atomic flag a handful of times and every
     thread re-acquires it in a tight loop — the ad-hoc-synchronization
     shape, where the same release snapshot is joined thousands of
     times.  The sparse-epoch clock turns the repeats into O(1) skips;
     the reference walks (and reallocates) all components every time.

   Each stream ends with one deliberate unsynchronized write pair so the
   engine differential compares real reports, not empty ones. *)

type synthetic = {
  s_name : string;
  s_mode : Config.mode;
  s_threads : int;
  s_events : Event.t array Lazy.t;
}

let syn_loc blk k = { lfunc = "synthetic"; lblk = blk; lidx = k }

let syn_prologue ~threads acc =
  acc := Event.Thread_start { tid = 0 } :: !acc;
  for tid = 1 to threads - 1 do
    acc := Event.Spawn_ev { parent = 0; child = tid; loc = syn_loc "spawn" tid } :: !acc;
    acc := Event.Thread_start { tid } :: !acc
  done

let syn_barrier ~threads ~generation acc =
  let loc = syn_loc "barrier" generation in
  for tid = 0 to threads - 1 do
    acc := Event.Barrier_arrive { tid; base = "bar"; idx = 0; generation; loc } :: !acc
  done;
  for tid = 0 to threads - 1 do
    acc := Event.Barrier_pass { tid; base = "bar"; idx = 0; generation; loc } :: !acc
  done

let syn_epilogue ~threads acc =
  let wloc = syn_loc "racy" 0 in
  acc := Event.Write { tid = 0; base = "racy"; base_id = 1; idx = 0; value = 1;
                       loc = wloc; kind = Event.Plain } :: !acc;
  acc := Event.Write { tid = 1; base = "racy"; base_id = 1; idx = 0; value = 2;
                       loc = wloc; kind = Event.Plain } :: !acc;
  for tid = 1 to threads - 1 do
    acc := Event.Thread_exit { tid } :: !acc;
    acc := Event.Join_return { tid = 0; target = tid; loc = syn_loc "join" tid } :: !acc
  done;
  acc := Event.Thread_exit { tid = 0 } :: !acc;
  Array.of_list (List.rev !acc)

let synthetic_barrier ~threads ~rounds =
  let acc = ref [] in
  syn_prologue ~threads acc;
  let gen = ref 0 in
  for round = 1 to rounds do
    let wloc = syn_loc "w" round and rloc = syn_loc "r" round in
    for tid = 0 to threads - 1 do
      acc := Event.Write { tid; base = "data"; base_id = 0; idx = tid;
                           value = round; loc = wloc; kind = Event.Plain } :: !acc
    done;
    syn_barrier ~threads ~generation:!gen acc;
    incr gen;
    for tid = 0 to threads - 1 do
      acc := Event.Read { tid; base = "data"; base_id = 0;
                          idx = (tid + 1) mod threads; value = round;
                          loc = rloc; kind = Event.Plain; spin = [] } :: !acc
    done;
    syn_barrier ~threads ~generation:!gen acc;
    incr gen
  done;
  syn_epilogue ~threads acc

let synthetic_join ~threads ~writes ~reads =
  let acc = ref [] in
  syn_prologue ~threads acc;
  syn_barrier ~threads ~generation:0 acc;
  let floc = syn_loc "flag" 0 in
  for round = 1 to writes do
    acc := Event.Write { tid = 0; base = "flag"; base_id = 2; idx = 0;
                         value = round; loc = floc; kind = Event.Atomic } :: !acc;
    let wloc = syn_loc "own" round in
    for tid = 0 to threads - 1 do
      acc := Event.Write { tid; base = "data"; base_id = 0; idx = tid;
                           value = round; loc = wloc; kind = Event.Plain } :: !acc
    done;
    for _rep = 1 to reads do
      for tid = 0 to threads - 1 do
        acc := Event.Read { tid; base = "flag"; base_id = 2; idx = 0;
                            value = round; loc = floc; kind = Event.Atomic;
                            spin = [] } :: !acc
      done
    done
  done;
  syn_epilogue ~threads acc

let synthetic =
  [
    { s_name = "barrier-128"; s_mode = Config.Helgrind_lib; s_threads = 128;
      s_events = lazy (synthetic_barrier ~threads:128 ~rounds:130) };
    { s_name = "barrier-512"; s_mode = Config.Helgrind_lib; s_threads = 512;
      s_events = lazy (synthetic_barrier ~threads:512 ~rounds:33) };
    { s_name = "join-128"; s_mode = Config.Helgrind_spin 7; s_threads = 128;
      s_events = lazy (synthetic_join ~threads:128 ~writes:8 ~reads:100) };
    { s_name = "join-512"; s_mode = Config.Helgrind_spin 7; s_threads = 512;
      s_events = lazy (synthetic_join ~threads:512 ~writes:4 ~reads:50) };
  ]

(* ------------------------------------------------------------------ *)
(* The gates                                                          *)

(* Both engines replay the identical event array, so the ratio prices
   the detectors alone.  One timed run streams the array through a
   fresh engine enough times to see ~200k events: the first pass fills
   the shadow state, the rest exercise the hot path on warm cells — the
   regime the per-event cost claim is about. *)
let engine_gate ~workload mode ~threads ~cv_mutexes ~instrument events bound =
  let cfg = Config.make mode in
  let inner = max 1 (200_000 / max 1 (Array.length events)) in
  let stream observer =
    for _ = 1 to inner do
      Array.iter observer events
    done
  in
  let opt () =
    stream
      (Arde.Engine.observer
         (Arde.Engine.create ~cv_mutexes ~threads cfg ~instrument))
  in
  let ref_ () =
    stream
      (Arde.Engine_ref.observer
         (Arde.Engine_ref.create ~cv_mutexes ~threads cfg ~instrument))
  in
  row ~gate:"engine speedup" ~workload (Config.mode_name mode) bound
    (ratios ~num:ref_ ~den:opt)

let engine_parsec name mode bound () =
  let program, instrument = prep (parsec name) mode in
  let trace = Arde.Trace.create () in
  ignore
    (Machine.run
       { (quiet_config instrument) with Machine.observer = Arde.Trace.push trace }
       (Machine.compile program));
  engine_gate ~workload:name mode ~threads:max_threads
    ~cv_mutexes:(Arde.Engine.cv_mutexes_of program) ~instrument
    (Arde.Trace.events trace)
    bound

let engine_synthetic name floor () =
  let s = List.find (fun s -> s.s_name = name) synthetic in
  engine_gate ~workload:name s.s_mode ~threads:s.s_threads ~cv_mutexes:[]
    ~instrument:None (Lazy.force s.s_events) (At_least floor)

(* Both machines interpret the same program under the same seed in quiet
   mode, so the ratio prices the interpreters alone. *)
let machine_speedup name mode bound () =
  let program, instrument = prep (parsec name) mode in
  let cfg = quiet_config instrument in
  let copt = Machine.compile program in
  let cref = Arde.Machine_ref.compile program in
  row ~gate:"machine speedup" ~workload:name (Config.mode_name mode) bound
    (ratios
       ~num:(fun () -> Arde.Machine_ref.run cfg cref)
       ~den:(fun () -> Machine.run cfg copt))

(* [threads] threads each bump their own cell [iters] times in a
   register-counted loop; main spawns the workers, runs the loop too and
   joins them.  No synchronization beyond spawn and join, so nearly every
   step is a straight-line instruction of a runnable thread. *)
let threaded_loop ~threads ~iters =
  let open Arde.Builder in
  let cell = gi "cell" (r "me") in
  let loop ~me ~last =
    (blk "init" (mov "i" (imm 0) :: me) (goto "hot_head")
    :: counted_loop ~tag:"hot" ~counter:"i" ~limit:(imm iters)
         ~body:[ load "v" cell; addi "v" (r "v") (imm 1); store cell (r "v") ]
         ~next:"out")
    @ [ last ]
  in
  let worker k = Printf.sprintf "t%d" k in
  program
    ~globals:[ global "cell" ~size:threads () ]
    ~entry:"main"
    [
      func "main"
        (blk "spawn"
           (List.init (threads - 1) (fun k -> spawn (worker k) "w" [ imm (k + 1) ]))
           (goto "init")
        :: loop ~me:[ mov "me" (imm 0) ]
             ~last:
               (blk "out"
                  (List.init (threads - 1) (fun k -> join (r (worker k))))
                  exit_t));
      func "w" ~params:[ "me" ] (loop ~me:[] ~last:(blk "out" [] ret0));
    ]

(* The scheduler's share of a step must not grow with the thread count:
   the same 600k loop iterations split over 32 threads and over 2, under
   the default policy and seed, priced per step. *)
let thread_scaling ~many ~few bound () =
  let run threads =
    let compiled =
      Machine.compile (threaded_loop ~threads ~iters:(600_000 / threads))
    in
    let cfg = { Machine.default_config with Machine.fuel = max_int } in
    let steps = (Machine.run cfg compiled).Machine.steps in
    ((fun () -> Machine.run cfg compiled), float_of_int steps)
  in
  let num, num_steps = run many and den, den_steps = run few in
  row ~gate:"machine thread scaling"
    ~workload:(Printf.sprintf "loop %d/%d threads" many few)
    ("quiet " ^ Arde.Sched.policy_name Machine.default_config.Machine.policy)
    bound
    (List.map (fun r -> r *. den_steps /. num_steps) (ratios ~num ~den))

(* The "cheap enough to leave recording on" claim is priced on a
   compute-bound workload, whose event density reflects real programs; a
   sync-dense one (streamcluster, x264) is nearly a pure event stream and
   prices the encoder, not recording.  A fresh sink per run, as the
   driver attaches one per seed. *)
let record_overhead name mode bound () =
  let program, instrument = prep (parsec name) mode in
  let compiled = Machine.compile program in
  let cfg = quiet_config instrument in
  let record () =
    let sink = Arde.Trace_codec.sink () in
    Machine.run
      { cfg with Machine.observer = Arde.Trace_codec.sink_observer sink }
      compiled
  in
  row ~gate:"record overhead" ~workload:name (Config.mode_name mode) bound
    (ratios ~num:record ~den:(fun () -> Machine.run cfg compiled))

(* "Two executions instead of sixteen", priced where it costs the most:
   predicting from a one-seed recording (replay plus closure, zero
   program executions) against the full 16-seed live sweep. *)
let predict_cost name mode bound () =
  let _, program = parsec name in
  let input = Arde.Input.Program program in
  let fuel = 150_000 in
  let options = Arde.Options.make ~seeds:(List.init 16 succ) ~fuel () in
  let recording =
    match
      Arde.record
        ~ctx:(Driver.ctx ~options:(Arde.Options.make ~seeds:[ 1 ] ~fuel ()) ())
        ~mode ~detect:false ~source:name input
    with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "bench gates: record %s: %s" name e)
  in
  let recorded =
    match Arde.Recorded.of_string recording.Driver.rec_trace with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "bench gates: load %s: %s" name e)
  in
  let pctx =
    Driver.ctx
      ~options:(Arde.Options.with_analysis Arde.Options.Predict options)
      ()
  in
  row ~gate:"predict cost" ~workload:name (Config.mode_name mode) bound
    (ratios
       ~num:(fun () -> Arde.detect ~ctx:pctx (Arde.Input.Recorded_trace recorded))
       ~den:(fun () -> Arde.detect ~ctx:(Driver.ctx ~options ()) ~mode input))

let run () =
  let central = Config.Nolib_spin 7 in
  List.map
    (fun gate -> gate ())
    [
      engine_parsec "streamcluster" central (At_least 1.0);
      engine_synthetic "barrier-128" 1.0;
      engine_synthetic "barrier-512" 1.0;
      engine_synthetic "join-128" 1.0;
      engine_synthetic "join-512" 2.0;
      machine_speedup "streamcluster" central (At_least 1.0);
      thread_scaling ~many:32 ~few:2 (At_most 1.5);
      record_overhead "swaptions" central (At_most 1.1);
      predict_cost "swaptions" central (At_most 0.25);
    ]

let to_json rows =
  J.Obj
    [
      ("host_cores", J.Int (Domain.recommended_domain_count ()));
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("gate", J.String r.gate);
                   ("workload", J.String r.workload);
                   ("mode", J.String r.mode);
                   ("ratio", J.Float r.ratio);
                   ("bound", J.Float r.bound);
                   ("pairs", J.Int r.pairs);
                   ("q1", J.Float r.q1);
                   ("median", J.Float r.median);
                   ("q3", J.Float r.q3);
                   ("pass", J.Bool r.pass);
                 ])
             rows) );
    ]

let render rows =
  let t =
    Arde_util.Table.create
      [ "Gate"; "Workload"; "Mode"; "ratio"; "bound"; "pairs"; "q1"; "q3"; "pass" ]
  in
  List.iter
    (fun r ->
      Arde_util.Table.add_row t
        [
          r.gate;
          r.workload;
          r.mode;
          Printf.sprintf "%.3fx" r.ratio;
          Printf.sprintf "%.2fx" r.bound;
          string_of_int r.pairs;
          Printf.sprintf "%.3fx" r.q1;
          Printf.sprintf "%.3fx" r.q3;
          (if r.pass then "pass" else "FAIL");
        ])
    rows;
  Arde_util.Table.render t
