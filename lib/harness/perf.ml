(* The paper's two performance figures:

   F1 — memory consumption per detector configuration (shadow cells,
   vector clocks, auxiliary tables), reported in detector heap words plus
   GC allocation, per workload.

   F2 — runtime overhead per configuration, reported as wall-clock time
   relative to executing the same program with no detector attached.

   The paper's claim is relative ("minor overhead due to the new
   feature"), so we report ratios against the spin-less hybrid. *)

module Parsec = Arde_workloads.Parsec
module Config = Arde.Config
module Machine = Arde.Machine
module Engine = Arde.Engine

type sample = {
  s_mode : string; (* "none" for the bare machine *)
  s_time_ns : float; (* per full run, median of repetitions *)
  s_alloc_words : float; (* GC minor+major words per run *)
  s_detector_words : int; (* live detector state at end of run *)
}

type fig = { workload : string; samples : sample list }

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* One full instrumented execution under [mode]; [None] runs the bare
   machine (the "native" baseline).  The engine is finished like a
   driver's seed, so repetitions after the first reuse its domain's
   workspace. *)
let run_once ~seed program_native program_lowered instrument_for mode () =
  match mode with
  | None ->
      let cfg = { Machine.default_config with Machine.seed } in
      ignore (Machine.run cfg program_native);
      0
  | Some mode ->
      let program =
        if Config.needs_lowering mode then program_lowered else program_native
      in
      let instrument = instrument_for mode in
      let engine = Engine.create (Config.make mode) ~instrument in
      let cfg =
        {
          Machine.default_config with
          Machine.seed;
          instrument;
          observer = Engine.observer engine;
        }
      in
      ignore (Machine.run cfg program);
      let words = Engine.memory_words engine in
      Engine.finish engine;
      words

let measure ?(repeats = 5) (info, program) =
  let lowered =
    Arde.Lower.lower ~style:info.Parsec.nolib_style program
  in
  let native_c = Machine.compile program in
  let lowered_c = Machine.compile lowered in
  let inst_native = lazy (Some (Arde.Instrument.analyze ~k:7 program)) in
  let inst_lowered = lazy (Some (Arde.Instrument.analyze ~k:7 lowered)) in
  let instrument_for = function
    | Config.Helgrind_lib | Config.Drd -> None
    | Config.Helgrind_spin _ -> Lazy.force inst_native
    | Config.Nolib_spin _ | Config.Nolib_spin_locks _ -> Lazy.force inst_lowered
  in
  let sample name mode =
    let times = ref [] and allocs = ref [] and words = ref 0 in
    (* Repetition 0 is a warm-up: it pays the one-time costs (lazy
       instrumentation analysis, hashtable growth, code paths cold in the
       icache) and is discarded before taking the median. *)
    for rep = 0 to repeats do
      let a0 = Gates.alloc_words () in
      let t =
        time_ns (fun () ->
            words :=
              run_once ~seed:(max 1 rep) native_c lowered_c instrument_for
                mode ())
      in
      if rep > 0 then begin
        times := t :: !times;
        allocs := (Gates.alloc_words () -. a0) :: !allocs
      end
    done;
    {
      s_mode = name;
      s_time_ns = Gates.median !times;
      s_alloc_words = Gates.median !allocs;
      s_detector_words = !words;
    }
  in
  {
    workload = info.Parsec.pname;
    samples =
      sample "none" None
      :: List.map
           (fun m -> sample (Config.mode_name m) (Some m))
           Config.all_table1_modes;
  }

let figure_rows figs ~value ~unit_name =
  let t =
    Arde_util.Table.create
      ([ "Workload" ]
      @ List.map (fun s -> s.s_mode) (List.hd figs).samples
      @ [ Printf.sprintf "spin/lib (%s)" unit_name ])
  in
  List.iter
    (fun f ->
      let v m =
        value (List.find (fun s -> s.s_mode = m) f.samples)
      in
      let lib = v "lib" in
      let ratio = if lib > 0. then v "lib+spin(7)" /. lib else 0. in
      Arde_util.Table.add_row t
        (f.workload
         :: List.map (fun s -> Printf.sprintf "%.2g" (value s)) f.samples
        @ [ Printf.sprintf "%.2f" ratio ]))
    figs;
  Arde_util.Table.render t

let figure1 figs =
  (* memory: detector words live at end of run + words allocated *)
  figure_rows figs ~value:(fun s -> float_of_int s.s_detector_words)
    ~unit_name:"words"

let figure2 figs =
  figure_rows figs ~value:(fun s -> s.s_time_ns /. 1e6) ~unit_name:"ms"

let default_workloads () =
  List.filter_map
    (fun name -> Parsec.find name)
    [ "streamcluster"; "x264"; "bodytrack"; "blackscholes" ]

let run_figures ?repeats () =
  let figs = List.map (measure ?repeats) (default_workloads ()) in
  (figs, figure1 figs, figure2 figs)
