open Arde_tir.Types

(* ------------------------------------------------------------------ *)
(* Errors                                                             *)

type error =
  | Bad_magic
  | Bad_version of int
  | Truncated of string
  | Corrupt of { at : int; what : string }
  | Limit of string

let error_to_string = function
  | Bad_magic -> "not an arde trace (bad magic)"
  | Bad_version v ->
      Printf.sprintf "unsupported trace format version %d (this build reads 1)"
        v
  | Truncated what -> Printf.sprintf "truncated trace: input ended in %s" what
  | Corrupt { at; what } ->
      Printf.sprintf "corrupt trace at byte %d: %s" at what
  | Limit what -> Printf.sprintf "trace exceeds reader limit: %s" what

let format_version = 1
let magic = "ARDETRC\x01"

(* Reader-side bounds: far above anything the repository records, low
   enough that a hostile length field cannot make us allocate wildly. *)
let max_lpstr = 1 lsl 24 (* 16 MiB: bounds the program text *)
let max_sections = 1 lsl 16
let max_list = 1 lsl 20 (* deadlock tids, livelock sites, check failures *)

type header = {
  h_digest : string;
  h_mode : string;
  h_options : string;
  h_source : string;
  h_program : string;
}

type livelock_site = {
  w_tid : int;
  w_loop : int;
  w_loc : loc;
  w_bases : string list;
}

type outcome =
  | Finished
  | Deadlock of int list
  | Fuel_exhausted
  | Livelock of livelock_site list
  | Fault of { ftid : int; floc : loc; msg : string }
  | Crashed of loc option * string
  | Cancelled

type trailer = {
  t_outcome : outcome;
  t_steps : int;
  t_check_failures : (loc * string) list;
}

(* ------------------------------------------------------------------ *)
(* Writing primitives: a growable byte buffer written in place         *)

(* A direct-mapped interning cache in front of the structural table,
   indexed by a three-character hash (length, first, last) so a lookup
   never walks the whole string.  A hit needs one [String.equal] on a
   short name; collisions and cold strings fall back to the Hashtbl,
   which remains the source of truth — the cache only memoizes its
   answers, so eviction can never change what gets encoded.  512 slots
   hold every function name, block label and base a realistic program
   has, with collisions the only misses in steady state. *)
let cache_slots = 512 (* power of two *)

type sink = {
  mutable buf : Bytes.t;
  mutable len : int;
  strs : (string, int) Hashtbl.t;
  cache_str : string array;
  cache_id : int array;
  mutable bdef : Bytes.t;
      (* read/write bases keyed by the machine's dense base id: ['\001']
         once id [i] has been defined in this section *)
  mutable n_events : int;
}

(* One shared placeholder for empty cache slots; emptiness is decided by
   [cache_id = -1], never by comparing against this string, so a program
   whose names happen to collide with it stays correct. *)
let empty_slot = "\000"

let sink ?(capacity = 8192) () =
  {
    buf = Bytes.create (max 64 capacity);
    len = 0;
    strs = Hashtbl.create 64;
    cache_str = Array.make cache_slots empty_slot;
    cache_id = Array.make cache_slots (-1);
    bdef = Bytes.make 64 '\000';
    n_events = 0;
  }

let str_slot str =
  let n = String.length str in
  if n = 0 then 0
  else
    n
    lxor (Char.code str.[0] lsl 3)
    lxor (Char.code str.[n - 1] lsl 9)
    land (cache_slots - 1)

let ensure s n =
  let need = s.len + n in
  if need > Bytes.length s.buf then begin
    let cap = ref (Bytes.length s.buf * 2) in
    while !cap < need do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end

let put_u8 s b =
  ensure s 1;
  Bytes.unsafe_set s.buf s.len (Char.unsafe_chr (b land 0xff));
  s.len <- s.len + 1

(* LEB128 over the int's 63-bit pattern: [lsr] makes negative inputs
   terminate after nine bytes.  One [ensure] covers the whole varint, so
   the digit loop runs on unsafe writes. *)
let put_varint s n =
  ensure s 10;
  let b = s.buf in
  let rec go pos n =
    if n land lnot 0x7f = 0 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (pos + 1) (n lsr 7)
    end
  in
  s.len <- go s.len n

(* Zigzag fold: small magnitudes of either sign stay one byte. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))
let put_signed s n = put_varint s (zigzag n)

let put_lpstr s str =
  let n = String.length str in
  put_varint s n;
  ensure s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

(* Intern a string in the section's table: 0 announces a new entry
   (definition follows inline), k>0 references entry k-1. *)
let put_strref_slow s str slot =
  (match Hashtbl.find_opt s.strs str with
  | Some id ->
      s.cache_id.(slot) <- id;
      put_varint s (id + 1)
  | None ->
      let id = Hashtbl.length s.strs in
      Hashtbl.add s.strs str id;
      s.cache_id.(slot) <- id;
      put_varint s 0;
      put_lpstr s str);
  s.cache_str.(slot) <- str

let put_strref s str =
  let slot = str_slot str in
  let c = s.cache_str.(slot) in
  let id = s.cache_id.(slot) in
  if id >= 0 && (c == str || String.equal c str) then put_varint s (id + 1)
  else put_strref_slow s str slot

(* A source location is three interned-string/varint fields — no
   loc-record interning table, so no record hashing on the hot path. *)
let put_loc s (l : loc) =
  put_strref s l.lfunc;
  put_strref s l.lblk;
  put_signed s l.lidx

(* Read/write bases ride the machine's dense base-id vocabulary: one
   varint [id+1], with the string defined inline at the id's first
   occurrence in the section.  The access contract ({!Event}) makes the
   id stand for its base, so a defined id is written without looking at
   the string. *)
let put_baseref s base base_id =
  if not (0 <= base_id && base_id < Event.max_base_id) then
    invalid_arg
      (Printf.sprintf "Trace_codec: base %S has id %d, outside [0, 2^20)" base
         base_id);
  if base_id >= Bytes.length s.bdef then begin
    let cap = ref (2 * Bytes.length s.bdef) in
    while base_id >= !cap do
      cap := !cap * 2
    done;
    let a = Bytes.make !cap '\000' in
    Bytes.blit s.bdef 0 a 0 (Bytes.length s.bdef);
    s.bdef <- a
  end;
  put_varint s (base_id + 1);
  if Bytes.get s.bdef base_id = '\000' then begin
    Bytes.set s.bdef base_id '\001';
    put_lpstr s base
  end

(* ------------------------------------------------------------------ *)
(* The read/write fast path.  Reads and writes are nearly the whole
   stream, so their arms pay for one capacity check up front and then
   write every field unchecked.  A slow-path detour (a string or base
   definition) does its own checked writes and restores the slack
   before returning, so the invariant holds across the whole arm. *)

let fast_slack = 96
(* tag + four signed varints + two string refs + lidx + spin count at
   their ten-byte worst case stays under this. *)

let uput_varint s n =
  let b = s.buf in
  let rec go pos n =
    if n land lnot 0x7f = 0 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr n);
      pos + 1
    end
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (pos + 1) (n lsr 7)
    end
  in
  s.len <- go s.len n

let uput_signed s n = uput_varint s (zigzag n)

let fput_strref s str =
  let slot = str_slot str in
  let c = s.cache_str.(slot) in
  let id = s.cache_id.(slot) in
  if id >= 0 && (c == str || String.equal c str) then uput_varint s (id + 1)
  else begin
    put_strref_slow s str slot;
    ensure s fast_slack
  end

let fput_baseref s base base_id =
  if
    base_id >= 0
    && base_id < Bytes.length s.bdef
    && Bytes.get s.bdef base_id <> '\000'
  then uput_varint s (base_id + 1)
  else begin
    put_baseref s base base_id;
    ensure s fast_slack
  end

(* ------------------------------------------------------------------ *)
(* Event encoding                                                     *)

let tag_read_plain = 1
let tag_read_atomic = 2
let tag_write_plain = 3
let tag_write_atomic = 4
let tag_lock_acq = 5
let tag_lock_rel = 6
let tag_cv_signal = 7
let tag_cv_wait_begin = 8
let tag_cv_wait_return = 9
let tag_barrier_arrive = 10
let tag_barrier_pass = 11
let tag_sem_post = 12
let tag_sem_acquire = 13
let tag_spawn = 14
let tag_join_return = 15
let tag_thread_start = 16
let tag_thread_exit = 17
let tag_spin_enter = 18
let tag_spin_exit = 19

let put_sync s tag ~tid ~base ~idx ~loc =
  put_u8 s tag;
  put_signed s tid;
  put_strref s base;
  put_signed s idx;
  put_loc s loc

let rec put_spins s = function
  | [] -> ()
  | (l, c) :: rest ->
      put_signed s l;
      put_signed s c;
      put_spins s rest

let encode_event s (ev : Event.t) =
  (match ev with
  | Event.Read { tid; base; base_id; idx; value; loc; kind; spin } ->
      ensure s fast_slack;
      Bytes.unsafe_set s.buf s.len
        (Char.unsafe_chr
           (match kind with
           | Event.Plain -> tag_read_plain
           | Event.Atomic -> tag_read_atomic));
      s.len <- s.len + 1;
      uput_signed s tid;
      fput_baseref s base base_id;
      uput_signed s idx;
      uput_signed s value;
      fput_strref s loc.lfunc;
      fput_strref s loc.lblk;
      uput_signed s loc.lidx;
      (match spin with
      | [] -> uput_varint s 0
      | _ ->
          uput_varint s (List.length spin);
          put_spins s spin)
  | Event.Write { tid; base; base_id; idx; value; loc; kind } ->
      ensure s fast_slack;
      Bytes.unsafe_set s.buf s.len
        (Char.unsafe_chr
           (match kind with
           | Event.Plain -> tag_write_plain
           | Event.Atomic -> tag_write_atomic));
      s.len <- s.len + 1;
      uput_signed s tid;
      fput_baseref s base base_id;
      uput_signed s idx;
      uput_signed s value;
      fput_strref s loc.lfunc;
      fput_strref s loc.lblk;
      uput_signed s loc.lidx
  | Event.Lock_acq { tid; base; idx; loc } ->
      put_sync s tag_lock_acq ~tid ~base ~idx ~loc
  | Event.Lock_rel { tid; base; idx; loc } ->
      put_sync s tag_lock_rel ~tid ~base ~idx ~loc
  | Event.Cv_signal { tid; base; idx; loc; broadcast; had_waiter } ->
      put_sync s tag_cv_signal ~tid ~base ~idx ~loc;
      put_u8 s ((if broadcast then 1 else 0) lor if had_waiter then 2 else 0)
  | Event.Cv_wait_begin { tid; base; idx; loc } ->
      put_sync s tag_cv_wait_begin ~tid ~base ~idx ~loc
  | Event.Cv_wait_return { tid; base; idx; loc } ->
      put_sync s tag_cv_wait_return ~tid ~base ~idx ~loc
  | Event.Barrier_arrive { tid; base; idx; generation; loc } ->
      put_sync s tag_barrier_arrive ~tid ~base ~idx ~loc;
      put_signed s generation
  | Event.Barrier_pass { tid; base; idx; generation; loc } ->
      put_sync s tag_barrier_pass ~tid ~base ~idx ~loc;
      put_signed s generation
  | Event.Sem_post_ev { tid; base; idx; loc } ->
      put_sync s tag_sem_post ~tid ~base ~idx ~loc
  | Event.Sem_acquire { tid; base; idx; loc } ->
      put_sync s tag_sem_acquire ~tid ~base ~idx ~loc
  | Event.Spawn_ev { parent; child; loc } ->
      put_u8 s tag_spawn;
      put_signed s parent;
      put_signed s child;
      put_loc s loc
  | Event.Join_return { tid; target; loc } ->
      put_u8 s tag_join_return;
      put_signed s tid;
      put_signed s target;
      put_loc s loc
  | Event.Thread_start { tid } ->
      put_u8 s tag_thread_start;
      put_signed s tid
  | Event.Thread_exit { tid } ->
      put_u8 s tag_thread_exit;
      put_signed s tid
  | Event.Spin_enter { tid; loop_id; ctx } ->
      put_u8 s tag_spin_enter;
      put_signed s tid;
      put_signed s loop_id;
      put_signed s ctx
  | Event.Spin_exit { tid; loop_id; ctx } ->
      put_u8 s tag_spin_exit;
      put_signed s tid;
      put_signed s loop_id;
      put_signed s ctx);
  s.n_events <- s.n_events + 1

let sink_observer s = Observer.of_fn (fun ev -> encode_event s ev)

(* ------------------------------------------------------------------ *)
(* Hashing: FNV-1a-ish, matching [Trace.hash]'s mixing constants       *)

let hash_bytes str =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length str - 1 do
    h := (!h * 16777619) lxor Char.code (String.unsafe_get str i)
  done;
  !h land max_int

(* ------------------------------------------------------------------ *)
(* Sections and file assembly                                         *)

type section = {
  s_seed : int;
  s_n_events : int;
  s_events : string;
  s_hash : int;
  s_trailer : trailer;
}

let section_of_sink s ~seed trailer =
  let events = Bytes.sub_string s.buf 0 s.len in
  {
    s_seed = seed;
    s_n_events = s.n_events;
    s_events = events;
    s_hash = hash_bytes events;
    s_trailer = trailer;
  }

let cancelled_trailer =
  { t_outcome = Cancelled; t_steps = 0; t_check_failures = [] }

let cancelled_section ~seed =
  {
    s_seed = seed;
    s_n_events = 0;
    s_events = "";
    s_hash = hash_bytes "";
    s_trailer = cancelled_trailer;
  }

(* Assembly reuses the sink buffer machinery without its tables. *)
let out_lpstr = put_lpstr
let out_varint = put_varint

let put_raw_loc o (l : loc) =
  out_lpstr o l.lfunc;
  out_lpstr o l.lblk;
  put_signed o l.lidx

let put_outcome o = function
  | Finished -> put_u8 o 0
  | Deadlock tids ->
      put_u8 o 1;
      out_varint o (List.length tids);
      List.iter (put_signed o) tids
  | Fuel_exhausted -> put_u8 o 2
  | Livelock sites ->
      put_u8 o 3;
      out_varint o (List.length sites);
      List.iter
        (fun w ->
          put_signed o w.w_tid;
          put_signed o w.w_loop;
          put_raw_loc o w.w_loc;
          out_varint o (List.length w.w_bases);
          List.iter (out_lpstr o) w.w_bases)
        sites
  | Fault { ftid; floc; msg } ->
      put_u8 o 4;
      put_signed o ftid;
      put_raw_loc o floc;
      out_lpstr o msg
  | Crashed (l, msg) ->
      put_u8 o 5;
      (match l with
      | None -> put_u8 o 0
      | Some l ->
          put_u8 o 1;
          put_raw_loc o l);
      out_lpstr o msg
  | Cancelled -> put_u8 o 6

let put_trailer o t =
  put_outcome o t.t_outcome;
  out_varint o t.t_steps;
  out_varint o (List.length t.t_check_failures);
  List.iter
    (fun (l, msg) ->
      put_raw_loc o l;
      out_lpstr o msg)
    t.t_check_failures

let section_tag = 0xA5
let end_tag = 0xEE
let kind_recorded = 0
let kind_cancelled = 1

let assemble header sections =
  let o = sink ~capacity:65536 () in
  ensure o (String.length magic);
  Bytes.blit_string magic 0 o.buf o.len (String.length magic);
  o.len <- o.len + String.length magic;
  out_varint o format_version;
  out_lpstr o header.h_digest;
  out_lpstr o header.h_mode;
  out_lpstr o header.h_options;
  out_lpstr o header.h_source;
  out_lpstr o header.h_program;
  List.iter
    (fun sec ->
      put_u8 o section_tag;
      out_varint o sec.s_seed;
      if sec.s_trailer.t_outcome = Cancelled then put_u8 o kind_cancelled
      else begin
        put_u8 o kind_recorded;
        out_varint o sec.s_n_events;
        out_varint o (String.length sec.s_events);
        ensure o (String.length sec.s_events);
        Bytes.blit_string sec.s_events 0 o.buf o.len
          (String.length sec.s_events);
        o.len <- o.len + String.length sec.s_events;
        out_varint o sec.s_hash;
        put_trailer o sec.s_trailer
      end)
    sections;
  put_u8 o end_tag;
  Bytes.sub_string o.buf 0 o.len

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)

exception Err of error

type reader = {
  data : string;
  mutable pos : int;
  limit : int;
  mutable rstrs : string array;
  mutable rn_strs : int;
  mutable rbases : string option array;
      (* read/write base strings keyed by dense base id, mirroring the
         sink's first-occurrence definitions *)
  rbase_ids : (string, unit) Hashtbl.t;  (* the bases defined so far *)
  extent : int -> int;  (* per base id: the indices an access may use *)
}

let reader ?(extent = fun _ -> max_int) data =
  {
    data;
    pos = 0;
    limit = String.length data;
    rstrs = Array.make 64 "";
    rn_strs = 0;
    rbases = Array.make 64 None;
    rbase_ids = Hashtbl.create 16;
    extent;
  }

let truncated what = raise (Err (Truncated what))
let corrupt r what = raise (Err (Corrupt { at = r.pos; what }))

let get_u8 r what =
  if r.pos >= r.limit then truncated what;
  let b = Char.code (String.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  b

let get_varint r what =
  let rec go shift acc =
    if shift > 62 then corrupt r ("overlong varint in " ^ what);
    let b = get_u8 r what in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_signed r what = unzigzag (get_varint r what)

let get_len r what =
  let n = get_varint r what in
  if n < 0 then corrupt r ("negative length in " ^ what);
  n

let get_lpstr r what =
  let n = get_len r what in
  if n > max_lpstr then raise (Err (Limit (what ^ " string length")));
  if r.pos + n > r.limit then truncated what;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_strref r what =
  let k = get_len r what in
  if k = 0 then begin
    let s = get_lpstr r what in
    if r.rn_strs = Array.length r.rstrs then begin
      let a = Array.make (2 * r.rn_strs) "" in
      Array.blit r.rstrs 0 a 0 r.rn_strs;
      r.rstrs <- a
    end;
    r.rstrs.(r.rn_strs) <- s;
    r.rn_strs <- r.rn_strs + 1;
    s
  end
  else if k - 1 >= r.rn_strs then corrupt r ("string reference out of range in " ^ what)
  else r.rstrs.(k - 1)

let get_loc r what =
  let lfunc = get_strref r what in
  let lblk = get_strref r what in
  let lidx = get_signed r what in
  { lfunc; lblk; lidx }

(* Mirrors [put_baseref]: [k > 0] is base id [k-1], with the string
   defined inline the first time this reader meets the id.  Anything the
   access contract forbids (an id out of range, a base defined under a
   second id) is corrupt. *)
let get_baseref r what =
  let id = get_len r what - 1 in
  if not (0 <= id && id < Event.max_base_id) then
    corrupt r (Printf.sprintf "base id %d outside [0, 2^20) in %s" id what);
  if id >= Array.length r.rbases then begin
    let cap = ref (2 * Array.length r.rbases) in
    while id >= !cap do
      cap := !cap * 2
    done;
    let a = Array.make !cap None in
    Array.blit r.rbases 0 a 0 (Array.length r.rbases);
    r.rbases <- a
  end;
  match r.rbases.(id) with
  | Some b -> (b, id)
  | None ->
      let b = get_lpstr r what in
      if Hashtbl.mem r.rbase_ids b then
        corrupt r (Printf.sprintf "base %S defined under a second id in %s" b what);
      Hashtbl.add r.rbase_ids b ();
      r.rbases.(id) <- Some b;
      (b, id)

(* A read or write's index: the access contract wants it non-negative,
   and the reader's program, when it has one, below the base's
   extent. *)
let get_idx r what base base_id =
  let idx = get_signed r what in
  if idx < 0 then corrupt r (Printf.sprintf "negative index %d in %s" idx what);
  let n = r.extent base_id in
  if idx >= n then
    corrupt r
      (Printf.sprintf "index %d beyond the extent %d of %s in %s" idx n base
         what);
  idx

let get_raw_loc r what =
  let lfunc = get_lpstr r what in
  let lblk = get_lpstr r what in
  let lidx = get_signed r what in
  { lfunc; lblk; lidx }

let get_list r what n_max f =
  let n = get_len r what in
  if n > n_max then raise (Err (Limit (what ^ " list length")));
  List.init n (fun _ -> f ())

(* ------------------------------------------------------------------ *)
(* Event decoding                                                     *)

let get_sync r what =
  let tid = get_signed r what in
  let base = get_strref r what in
  let idx = get_signed r what in
  let loc = get_loc r what in
  (tid, base, idx, loc)

let decode_one r : Event.t =
  let tag = get_u8 r "event tag" in
  match tag with
  | t when t = tag_read_plain || t = tag_read_atomic ->
      let what = "read event" in
      let tid = get_signed r what in
      let base, base_id = get_baseref r what in
      let idx = get_idx r what base base_id in
      let value = get_signed r what in
      let loc = get_loc r what in
      let spin =
        get_list r what max_list (fun () ->
            let l = get_signed r what in
            let c = get_signed r what in
            (l, c))
      in
      Event.Read
        {
          tid;
          base;
          base_id;
          idx;
          value;
          loc;
          kind = (if tag = tag_read_plain then Event.Plain else Event.Atomic);
          spin;
        }
  | t when t = tag_write_plain || t = tag_write_atomic ->
      let what = "write event" in
      let tid = get_signed r what in
      let base, base_id = get_baseref r what in
      let idx = get_idx r what base base_id in
      let value = get_signed r what in
      let loc = get_loc r what in
      Event.Write
        {
          tid;
          base;
          base_id;
          idx;
          value;
          loc;
          kind = (if tag = tag_write_plain then Event.Plain else Event.Atomic);
        }
  | t when t = tag_lock_acq ->
      let tid, base, idx, loc = get_sync r "lock event" in
      Event.Lock_acq { tid; base; idx; loc }
  | t when t = tag_lock_rel ->
      let tid, base, idx, loc = get_sync r "unlock event" in
      Event.Lock_rel { tid; base; idx; loc }
  | t when t = tag_cv_signal ->
      let tid, base, idx, loc = get_sync r "signal event" in
      let flags = get_u8 r "signal flags" in
      if flags land lnot 3 <> 0 then corrupt r "signal flags";
      Event.Cv_signal
        {
          tid;
          base;
          idx;
          loc;
          broadcast = flags land 1 <> 0;
          had_waiter = flags land 2 <> 0;
        }
  | t when t = tag_cv_wait_begin ->
      let tid, base, idx, loc = get_sync r "wait-begin event" in
      Event.Cv_wait_begin { tid; base; idx; loc }
  | t when t = tag_cv_wait_return ->
      let tid, base, idx, loc = get_sync r "wait-return event" in
      Event.Cv_wait_return { tid; base; idx; loc }
  | t when t = tag_barrier_arrive ->
      let tid, base, idx, loc = get_sync r "barrier-arrive event" in
      let generation = get_signed r "barrier generation" in
      Event.Barrier_arrive { tid; base; idx; generation; loc }
  | t when t = tag_barrier_pass ->
      let tid, base, idx, loc = get_sync r "barrier-pass event" in
      let generation = get_signed r "barrier generation" in
      Event.Barrier_pass { tid; base; idx; generation; loc }
  | t when t = tag_sem_post ->
      let tid, base, idx, loc = get_sync r "sem-post event" in
      Event.Sem_post_ev { tid; base; idx; loc }
  | t when t = tag_sem_acquire ->
      let tid, base, idx, loc = get_sync r "sem-acquire event" in
      Event.Sem_acquire { tid; base; idx; loc }
  | t when t = tag_spawn ->
      let parent = get_signed r "spawn event" in
      let child = get_signed r "spawn event" in
      let loc = get_loc r "spawn event" in
      Event.Spawn_ev { parent; child; loc }
  | t when t = tag_join_return ->
      let tid = get_signed r "join event" in
      let target = get_signed r "join event" in
      let loc = get_loc r "join event" in
      Event.Join_return { tid; target; loc }
  | t when t = tag_thread_start ->
      Event.Thread_start { tid = get_signed r "thread-start event" }
  | t when t = tag_thread_exit ->
      Event.Thread_exit { tid = get_signed r "thread-exit event" }
  | t when t = tag_spin_enter ->
      let tid = get_signed r "spin-enter event" in
      let loop_id = get_signed r "spin-enter event" in
      let ctx = get_signed r "spin-enter event" in
      Event.Spin_enter { tid; loop_id; ctx }
  | t when t = tag_spin_exit ->
      let tid = get_signed r "spin-exit event" in
      let loop_id = get_signed r "spin-exit event" in
      let ctx = get_signed r "spin-exit event" in
      Event.Spin_exit { tid; loop_id; ctx }
  | t -> corrupt r (Printf.sprintf "unknown event tag %d" t)

let decode_events ?extent sec f =
  let r = reader ?extent sec.s_events in
  match
    let n = ref 0 in
    while r.pos < r.limit do
      f (decode_one r);
      incr n
    done;
    !n
  with
  | n ->
      if n <> sec.s_n_events then
        Error
          (Corrupt
             {
               at = r.pos;
               what =
                 Printf.sprintf "section declares %d events, body holds %d"
                   sec.s_n_events n;
             })
      else Ok ()
  | exception Err e -> Error e

let encode_events events =
  let s = sink () in
  List.iter (encode_event s) events;
  let bytes = Bytes.sub_string s.buf 0 s.len in
  (bytes, hash_bytes bytes)

(* ------------------------------------------------------------------ *)
(* File reading                                                       *)

let get_outcome r =
  match get_u8 r "outcome" with
  | 0 -> Finished
  | 1 ->
      Deadlock (get_list r "deadlock tids" max_list (fun () -> get_signed r "deadlock tid"))
  | 2 -> Fuel_exhausted
  | 3 ->
      Livelock
        (get_list r "livelock sites" max_list (fun () ->
             let w_tid = get_signed r "livelock site" in
             let w_loop = get_signed r "livelock site" in
             let w_loc = get_raw_loc r "livelock site" in
             let w_bases =
               get_list r "livelock bases" max_list (fun () ->
                   get_lpstr r "livelock base")
             in
             { w_tid; w_loop; w_loc; w_bases }))
  | 4 ->
      let ftid = get_signed r "fault outcome" in
      let floc = get_raw_loc r "fault outcome" in
      let msg = get_lpstr r "fault outcome" in
      Fault { ftid; floc; msg }
  | 5 ->
      let l =
        match get_u8 r "crash outcome" with
        | 0 -> None
        | 1 -> Some (get_raw_loc r "crash outcome")
        | _ -> corrupt r "crash outcome loc flag"
      in
      Crashed (l, get_lpstr r "crash outcome")
  | 6 -> Cancelled
  | t -> corrupt r (Printf.sprintf "unknown outcome tag %d" t)

let get_trailer r =
  let t_outcome = get_outcome r in
  let t_steps = get_len r "trailer steps" in
  let t_check_failures =
    get_list r "check failures" max_list (fun () ->
        let l = get_raw_loc r "check failure" in
        let msg = get_lpstr r "check failure" in
        (l, msg))
  in
  { t_outcome; t_steps; t_check_failures }

let get_header r =
  if r.limit - r.pos < String.length magic then truncated "magic";
  if String.sub r.data r.pos (String.length magic) <> magic then
    raise (Err Bad_magic);
  r.pos <- r.pos + String.length magic;
  let v = get_varint r "version" in
  if v <> format_version then raise (Err (Bad_version v));
  let h_digest = get_lpstr r "header digest" in
  let h_mode = get_lpstr r "header mode" in
  let h_options = get_lpstr r "header options" in
  let h_source = get_lpstr r "header source" in
  let h_program = get_lpstr r "header program" in
  { h_digest; h_mode; h_options; h_source; h_program }

let read_header data =
  match get_header (reader data) with
  | h -> Ok h
  | exception Err e -> Error e

type summary = {
  y_seed : int;
  y_n_events : int;
  y_bytes : int;
  y_outcome : outcome;
  y_steps : int;
}

(* One pass over the section framing.  [body] receives the event-byte
   extent and the already-read counters and decides what to keep — the
   full section (with hash check) or just a summary (skipping the
   bytes). *)
let read_structure data ~body =
  let r = reader data in
  match
    let header = get_header r in
    let acc = ref [] in
    let n = ref 0 in
    let rec loop () =
      match get_u8 r "section tag" with
      | t when t = end_tag ->
          if r.pos <> r.limit then corrupt r "trailing bytes after end marker"
      | t when t = section_tag ->
          incr n;
          if !n > max_sections then raise (Err (Limit "section count"));
          let seed = get_varint r "section seed" in
          (match get_u8 r "section kind" with
          | k when k = kind_cancelled ->
              acc :=
                body ~seed ~n_events:0 ~off:r.pos ~len:0 ~hash:(hash_bytes "")
                  ~trailer:cancelled_trailer
                :: !acc
          | k when k = kind_recorded ->
              let n_events = get_len r "section event count" in
              let len = get_len r "section event bytes" in
              if r.pos + len > r.limit then truncated "section event bytes";
              let off = r.pos in
              r.pos <- r.pos + len;
              let hash = get_len r "section hash" in
              let trailer = get_trailer r in
              if trailer.t_outcome = Cancelled then
                corrupt r "recorded section with cancelled outcome";
              acc := body ~seed ~n_events ~off ~len ~hash ~trailer :: !acc
          | k -> corrupt r (Printf.sprintf "unknown section kind %d" k));
          loop ()
      | t -> corrupt r (Printf.sprintf "unknown section tag 0x%02x" t)
    in
    loop ();
    (header, List.rev !acc)
  with
  | res -> Ok res
  | exception Err e -> Error e

let read_info data =
  read_structure data ~body:(fun ~seed ~n_events ~off:_ ~len ~hash:_ ~trailer ->
      {
        y_seed = seed;
        y_n_events = n_events;
        y_bytes = len;
        y_outcome = trailer.t_outcome;
        y_steps = trailer.t_steps;
      })

let read_sections data =
  match
    read_structure data ~body:(fun ~seed ~n_events ~off ~len ~hash ~trailer ->
        let events = String.sub data off len in
        let actual = hash_bytes events in
        if actual <> hash then
          raise
            (Err
               (Corrupt
                  {
                    at = off;
                    what =
                      Printf.sprintf
                        "seed %d event bytes fail their integrity hash \
                         (recorded %d, computed %d)"
                        seed hash actual;
                  }));
        {
          s_seed = seed;
          s_n_events = n_events;
          s_events = events;
          s_hash = hash;
          s_trailer = trailer;
        })
  with
  | Ok _ as ok -> ok
  | Error _ as e -> e
