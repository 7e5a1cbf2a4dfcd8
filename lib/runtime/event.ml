open Arde_tir.Types

type access_kind = Plain | Atomic

type t =
  | Read of {
      tid : int;
      base : string;
      base_id : int;
      idx : int;
      value : int;
      loc : loc;
      kind : access_kind;
      spin : (int * int) list;
    }
  | Write of {
      tid : int;
      base : string;
      base_id : int;
      idx : int;
      value : int;
      loc : loc;
      kind : access_kind;
    }
  | Lock_acq of { tid : int; base : string; idx : int; loc : loc }
  | Lock_rel of { tid : int; base : string; idx : int; loc : loc }
  | Cv_signal of {
      tid : int;
      base : string;
      idx : int;
      loc : loc;
      broadcast : bool;
      had_waiter : bool;
          (* was any thread waiting when the signal fired?  A signal into
             the void is a potential lost signal. *)
    }
  | Cv_wait_begin of { tid : int; base : string; idx : int; loc : loc }
  | Cv_wait_return of { tid : int; base : string; idx : int; loc : loc }
  | Barrier_arrive of {
      tid : int;
      base : string;
      idx : int;
      generation : int;
      loc : loc;
    }
  | Barrier_pass of {
      tid : int;
      base : string;
      idx : int;
      generation : int;
      loc : loc;
    }
  | Sem_post_ev of { tid : int; base : string; idx : int; loc : loc }
  | Sem_acquire of { tid : int; base : string; idx : int; loc : loc }
  | Spawn_ev of { parent : int; child : int; loc : loc }
  | Join_return of { tid : int; target : int; loc : loc }
  | Thread_start of { tid : int }
  | Thread_exit of { tid : int }
  | Spin_enter of { tid : int; loop_id : int; ctx : int }
  | Spin_exit of { tid : int; loop_id : int; ctx : int }

let max_base_id = 1 lsl 20

let tid_of = function
  | Read { tid; _ }
  | Write { tid; _ }
  | Lock_acq { tid; _ }
  | Lock_rel { tid; _ }
  | Cv_signal { tid; _ }
  | Cv_wait_begin { tid; _ }
  | Cv_wait_return { tid; _ }
  | Barrier_arrive { tid; _ }
  | Barrier_pass { tid; _ }
  | Sem_post_ev { tid; _ }
  | Sem_acquire { tid; _ }
  | Join_return { tid; _ }
  | Thread_start { tid }
  | Thread_exit { tid }
  | Spin_enter { tid; _ }
  | Spin_exit { tid; _ } ->
      tid
  | Spawn_ev { parent; _ } -> parent

let pp_loc = Arde_tir.Pretty.loc

let pp ppf = function
  | Read { tid; base; idx; value; loc; kind; spin; _ } ->
      Format.fprintf ppf "T%d %s-read %s[%d]=%d @%a%s" tid
        (match kind with Plain -> "plain" | Atomic -> "atomic")
        base idx value pp_loc loc
        (if spin = [] then ""
         else
           " spin:"
           ^ String.concat ","
               (List.map (fun (l, c) -> Printf.sprintf "%d/%d" l c) spin))
  | Write { tid; base; idx; value; loc; kind; _ } ->
      Format.fprintf ppf "T%d %s-write %s[%d]=%d @%a" tid
        (match kind with Plain -> "plain" | Atomic -> "atomic")
        base idx value pp_loc loc
  | Lock_acq { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d lock %s[%d] @%a" tid base idx pp_loc loc
  | Lock_rel { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d unlock %s[%d] @%a" tid base idx pp_loc loc
  | Cv_signal { tid; base; idx; loc; broadcast; had_waiter } ->
      Format.fprintf ppf "T%d %s %s[%d]%s @%a" tid
        (if broadcast then "broadcast" else "signal")
        base idx
        (if had_waiter then "" else " (no waiter)")
        pp_loc loc
  | Cv_wait_begin { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d wait-begin %s[%d] @%a" tid base idx pp_loc loc
  | Cv_wait_return { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d wait-return %s[%d] @%a" tid base idx pp_loc loc
  | Barrier_arrive { tid; base; idx; generation; loc } ->
      Format.fprintf ppf "T%d barrier-arrive %s[%d] gen=%d @%a" tid base idx
        generation pp_loc loc
  | Barrier_pass { tid; base; idx; generation; loc } ->
      Format.fprintf ppf "T%d barrier-pass %s[%d] gen=%d @%a" tid base idx
        generation pp_loc loc
  | Sem_post_ev { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d sem-post %s[%d] @%a" tid base idx pp_loc loc
  | Sem_acquire { tid; base; idx; loc } ->
      Format.fprintf ppf "T%d sem-acquire %s[%d] @%a" tid base idx pp_loc loc
  | Spawn_ev { parent; child; loc } ->
      Format.fprintf ppf "T%d spawn T%d @%a" parent child pp_loc loc
  | Join_return { tid; target; loc } ->
      Format.fprintf ppf "T%d joined T%d @%a" tid target pp_loc loc
  | Thread_start { tid } -> Format.fprintf ppf "T%d start" tid
  | Thread_exit { tid } -> Format.fprintf ppf "T%d exit" tid
  | Spin_enter { tid; loop_id; ctx } ->
      Format.fprintf ppf "T%d spin-enter loop=%d ctx=%d" tid loop_id ctx
  | Spin_exit { tid; loop_id; ctx } ->
      Format.fprintf ppf "T%d spin-exit loop=%d ctx=%d" tid loop_id ctx
