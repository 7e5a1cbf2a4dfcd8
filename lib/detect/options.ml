type analysis = Sweep | Predict | Both

let analysis_name = function
  | Sweep -> "sweep"
  | Predict -> "predict"
  | Both -> "both"

let parse_analysis = function
  | "sweep" -> Ok Sweep
  | "predict" -> Ok Predict
  | "both" -> Ok Both
  | s -> Error (Printf.sprintf "unknown analysis %S (sweep|predict|both)" s)

type t = {
  seeds : int list;
  policy : Arde_runtime.Sched.policy;
  fuel : int;
  jobs : int;
  sensitivity : Msm.sensitivity;
  cap : int;
  lower_style : Arde_tir.Lower.style;
  spurious_wakeups : bool;
  count_callee_blocks : bool;
  analysis : analysis;
  inject : (seed:int -> Arde_runtime.Event.t -> unit) option;
}

let default_jobs = Domain.recommended_domain_count ()

let default =
  {
    seeds = [ 1; 2; 3; 4; 5 ];
    policy = Arde_runtime.Sched.Chunked 6;
    fuel = 2_000_000;
    jobs = 0;
    sensitivity = Msm.Short_running;
    cap = 1000;
    lower_style = Arde_tir.Lower.Realistic;
    spurious_wakeups = false;
    count_callee_blocks = true;
    analysis = Sweep;
    inject = None;
  }

let make ?seeds ?policy ?fuel ?jobs ?sensitivity ?cap ?lower_style
    ?spurious_wakeups ?count_callee_blocks ?analysis ?inject () =
  {
    seeds = Option.value ~default:default.seeds seeds;
    policy = Option.value ~default:default.policy policy;
    fuel = Option.value ~default:default.fuel fuel;
    jobs = Option.value ~default:default.jobs jobs;
    sensitivity = Option.value ~default:default.sensitivity sensitivity;
    cap = Option.value ~default:default.cap cap;
    lower_style = Option.value ~default:default.lower_style lower_style;
    spurious_wakeups =
      Option.value ~default:default.spurious_wakeups spurious_wakeups;
    count_callee_blocks =
      Option.value ~default:default.count_callee_blocks count_callee_blocks;
    analysis = Option.value ~default:default.analysis analysis;
    inject;
  }

let with_seeds seeds t = { t with seeds }
let with_seed_count n t = { t with seeds = List.init (max 0 n) (fun i -> i + 1) }
let with_policy policy t = { t with policy }
let with_fuel fuel t = { t with fuel }
let with_jobs jobs t = { t with jobs }
let with_lower_style lower_style t = { t with lower_style }
let with_spurious_wakeups spurious_wakeups t = { t with spurious_wakeups }
let with_count_callee_blocks count_callee_blocks t = { t with count_callee_blocks }
let with_analysis analysis t = { t with analysis }
let with_inject inject t = { t with inject }

(* ------------------------------------------------------------------ *)
(* Wire form — the serve protocol ships the whole option surface as one
   JSON object.  [inject] is a closure and never crosses the wire; every
   other field does, and absent fields mean "the default", so an empty
   object is a valid (default) options payload. *)

module J = Arde_util.Json

let to_json t =
  J.Obj
    ([
       ("seeds", J.List (List.map (fun s -> J.Int s) t.seeds));
       ("policy", J.String (Arde_runtime.Sched.policy_name t.policy));
       ("fuel", J.Int t.fuel);
       ("jobs", J.Int t.jobs);
       ("sensitivity", J.String (Msm.sensitivity_name t.sensitivity));
       ("cap", J.Int t.cap);
       ("lower_style", J.String (Arde_tir.Lower.style_name t.lower_style));
       ("spurious_wakeups", J.Bool t.spurious_wakeups);
       ("count_callee_blocks", J.Bool t.count_callee_blocks);
     ]
    (* emitted only when non-default, so pre-analysis documents (and
       every already-recorded trace header) stay byte-identical *)
    @
    if t.analysis = Sweep then []
    else [ ("analysis", J.String (analysis_name t.analysis)) ])

let of_json j =
  let ( let* ) = Result.bind in
  match j with
  | J.Obj _ ->
      let opt_field name conv k =
        match J.member name j with
        | None -> Ok None
        | Some v -> (
            match conv v with
            | Some x -> k x
            | None -> Error (Printf.sprintf "ill-typed field %S" name))
      in
      let int_field name = opt_field name J.to_int (fun x -> Ok (Some x)) in
      let bool_field name = opt_field name J.to_bool (fun x -> Ok (Some x)) in
      let parsed_field name parse =
        opt_field name J.to_str (fun s ->
            match parse s with
            | Ok x -> Ok (Some x)
            | Error e -> Error (Printf.sprintf "field %S: %s" name e))
      in
      let* seeds =
        match J.member "seeds" j with
        | None -> Ok None
        | Some (J.List xs) ->
            let rec go acc = function
              | [] -> Ok (Some (List.rev acc))
              | x :: rest -> (
                  match J.to_int x with
                  | Some s -> go (s :: acc) rest
                  | None -> Error "ill-typed seed in \"seeds\"")
            in
            go [] xs
        | Some _ -> Error "ill-typed field \"seeds\""
      in
      let* policy = parsed_field "policy" Arde_runtime.Sched.parse_policy in
      let* fuel = int_field "fuel" in
      let* jobs = int_field "jobs" in
      let* sensitivity = parsed_field "sensitivity" Msm.parse_sensitivity in
      let* cap = int_field "cap" in
      let* lower_style = parsed_field "lower_style" Arde_tir.Lower.parse_style in
      let* spurious_wakeups = bool_field "spurious_wakeups" in
      let* count_callee_blocks = bool_field "count_callee_blocks" in
      let* analysis = parsed_field "analysis" parse_analysis in
      Ok
        (make ?seeds ?policy ?fuel ?jobs ?sensitivity ?cap ?lower_style
           ?spurious_wakeups ?count_callee_blocks ?analysis ())
  | _ -> Error "options must be a JSON object"

(* Requested widths beyond the host's core count only add domain-switch
   overhead (every worker is CPU-bound); clamp and let callers surface the
   correction. *)
let jobs_clamp t =
  if t.jobs > default_jobs then Some (t.jobs, default_jobs) else None

let effective_jobs t ~n_seeds =
  let width =
    if t.jobs <= 0 then default_jobs else min t.jobs default_jobs
  in
  max 1 (min width n_seeds)
