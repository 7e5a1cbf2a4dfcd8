type stats = {
  lower_hits : int;
  lower_misses : int;
  instrument_hits : int;
  instrument_misses : int;
  prepare_hits : int;
  prepare_misses : int;
}

type prepared = {
  p_program : Arde_tir.Types.program;
  p_instrument : Arde_cfg.Instrument.t option;
  p_cv_mutexes : string list;
  p_inferred_locks : string list;
  p_compiled : Arde_runtime.Machine.compiled;
  p_cv_hazards : Cv_checker.diagnostic list;
}

module Fifo = Arde_util.Fifo_table

(* Every level is bounded, oldest entry evicted first, so a resident
   server seeing an endless stream of unique programs plateaus instead
   of growing without bound.  The prepared table holds a
   [Machine.compiled] per entry — the heaviest cached object by far
   (code arrays plus the per-instrumentation spin cache built on first
   run).  The inner tables hold only analysis results and get a wider
   bound: one prepared program fans out into a lowering per style and an
   instrumentation per (lowering, k, count_callees), and a workload that
   cycles through more prepare keys than [max_prepared] (each re-prepare
   a miss) still finds its inner entries warm. *)
let max_prepared = 128
let max_inner = 4 * max_prepared
let lock = Mutex.create ()

let lower_tbl : (string * Arde_tir.Lower.style, Arde_tir.Types.program) Fifo.t =
  Fifo.create max_inner

(* Keyed by the digest of the program {e before} lowering plus the
   lowering style applied to it ([None]: analyzed as given), so the
   prepare path never digests the lowered program. *)
let inst_tbl :
    ( string * Arde_tir.Lower.style option * int * bool,
      Arde_cfg.Instrument.t )
    Fifo.t =
  Fifo.create max_inner

let prep_tbl : (string * string * Arde_tir.Lower.style * bool, prepared) Fifo.t =
  Fifo.create max_prepared

let lower_hits = ref 0
let lower_misses = ref 0
let inst_hits = ref 0
let inst_misses = ref 0
let prep_hits = ref 0
let prep_misses = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let digest_of_program prog =
  Digest.string (Arde_tir.Pretty.program_to_string prog)

(* Look up under the mutex; compute outside it (analysis can be slow and
   must not serialize unrelated cache users), then publish.  A racing
   duplicate computation is harmless: both compute equal values, the
   first one published stays, and every racer returns that one. *)
let memo tbl hits misses key compute =
  let cached =
    locked (fun () ->
        match Fifo.find_opt tbl key with
        | Some v ->
            incr hits;
            Some v
        | None ->
            incr misses;
            None)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = compute () in
      locked (fun () ->
          Fifo.add tbl key v;
          Option.value (Fifo.find_opt tbl key) ~default:v)

let lower_keyed ~digest ~style prog =
  memo lower_tbl lower_hits lower_misses (digest, style) (fun () ->
      Arde_tir.Lower.lower ~style prog)

(* [prog] is the analyzed program: the [lowering]-style lowering of the
   program [digest] identifies. *)
let instrument_keyed ~digest ~lowering ~count_callees ~k prog =
  memo inst_tbl inst_hits inst_misses (digest, lowering, k, count_callees)
    (fun () -> Arde_cfg.Instrument.analyze ~count_callees ~k prog)

let lowered ~style prog =
  lower_keyed ~digest:(digest_of_program prog) ~style prog

let instrumented ~count_callees ~k prog =
  instrument_keyed ~digest:(digest_of_program prog) ~lowering:None
    ~count_callees ~k prog

(* The full static half of the pipeline, computed once per
   (program, mode, knobs).  The inner stages are keyed by the prepare
   digest itself, so a prepared miss records their hits/misses without
   digesting anything; a prepared hit touches neither. *)
let compute_prepared ~digest ~style ~count_callees mode program =
  let lowering = if Config.needs_lowering mode then Some style else None in
  let program =
    match lowering with
    | Some style -> lower_keyed ~digest ~style program
    | None -> program
  in
  let instrument =
    match Config.spin_k mode with
    | Some k ->
        Some (instrument_keyed ~digest ~lowering ~count_callees ~k program)
    | None -> None
  in
  let cv_mutexes =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (f : Arde_tir.Types.func) ->
           List.concat_map
             (fun (b : Arde_tir.Types.block) ->
               List.filter_map
                 (function
                   | Arde_tir.Types.Cond_wait (_, m) ->
                       Some m.Arde_tir.Types.base
                   | _ -> None)
                 b.Arde_tir.Types.ins)
             f.Arde_tir.Types.blocks)
         program.Arde_tir.Types.funcs)
  in
  let inferred_locks =
    if Config.infer_locks mode then
      Arde_cfg.Lock_infer.inferred_locks (Arde_cfg.Lock_infer.analyze program)
    else []
  in
  let compiled = Arde_runtime.Machine.compile program in
  {
    p_program = program;
    p_instrument = instrument;
    p_cv_mutexes = cv_mutexes;
    p_inferred_locks = inferred_locks;
    p_compiled = compiled;
    p_cv_hazards = (try Cv_checker.static_check program with _ -> []);
  }

let prep_key ~digest ~style ~count_callees mode =
  (digest, Config.mode_id mode, style, count_callees)

let prepare ?digest ~style ~count_callees mode program =
  let digest =
    match digest with Some d -> d | None -> digest_of_program program
  in
  memo prep_tbl prep_hits prep_misses
    (prep_key ~digest ~style ~count_callees mode)
    (fun () -> compute_prepared ~digest ~style ~count_callees mode program)

(* A lookup that never computes: it counts its hits, and leaves a miss
   to the {!prepare} the caller makes once it has a program. *)
let find_prepared ~digest ~style ~count_callees mode =
  locked (fun () ->
      let found =
        Fifo.find_opt prep_tbl (prep_key ~digest ~style ~count_callees mode)
      in
      if Option.is_some found then incr prep_hits;
      found)

let stats () =
  locked (fun () ->
      {
        lower_hits = !lower_hits;
        lower_misses = !lower_misses;
        instrument_hits = !inst_hits;
        instrument_misses = !inst_misses;
        prepare_hits = !prep_hits;
        prepare_misses = !prep_misses;
      })

let stats_delta ~before ~after =
  {
    lower_hits = after.lower_hits - before.lower_hits;
    lower_misses = after.lower_misses - before.lower_misses;
    instrument_hits = after.instrument_hits - before.instrument_hits;
    instrument_misses = after.instrument_misses - before.instrument_misses;
    prepare_hits = after.prepare_hits - before.prepare_hits;
    prepare_misses = after.prepare_misses - before.prepare_misses;
  }

let stats_to_json s =
  Arde_util.Json.Obj
    [
      ("lower_hits", Arde_util.Json.Int s.lower_hits);
      ("lower_misses", Arde_util.Json.Int s.lower_misses);
      ("instrument_hits", Arde_util.Json.Int s.instrument_hits);
      ("instrument_misses", Arde_util.Json.Int s.instrument_misses);
      ("prepare_hits", Arde_util.Json.Int s.prepare_hits);
      ("prepare_misses", Arde_util.Json.Int s.prepare_misses);
    ]

let reset_stats () =
  locked (fun () ->
      lower_hits := 0;
      lower_misses := 0;
      inst_hits := 0;
      inst_misses := 0;
      prep_hits := 0;
      prep_misses := 0)

let clear () =
  locked (fun () ->
      Fifo.clear lower_tbl;
      Fifo.clear inst_tbl;
      Fifo.clear prep_tbl)
