(* Building blocks for the synthetic PARSEC 2.0 programs.

   Racy contexts — the paper's metric — count distinct *static* location
   pairs, so the generators unroll "site groups": each group gets its own
   producer instructions and its own consumer blocks.  A group is ordered
   by one of the synchronization idioms below; the detector configuration
   decides whether that ordering is visible.

   Group flavours:
   - flag: user-level spinning read loop on flag[g] (ad-hoc sync);
   - fptr: the same loop, condition behind a function pointer
     (statically unanalyzable — residual false positives);
   - locked flag: the flag is sampled under a mutex inside the loop
     (dedup's idiom: pure happens-before tools are clean, hybrids need
     spin detection);
   - cv gate: check-once-then-cond_wait on a native condition variable
     (no loop: ordering is only visible through library knowledge or a
     recoverable lowering of the wait);
   - barrier: groups written before a barrier and consumed after it.

   Consumption is either [`Writeback] (consumer mutates data[g] — hybrids
   report when the ordering is invisible) or [`Readonly sites] (consumer
   only reads, at [sites] distinct locations — only pure happens-before
   detectors report when the ordering is invisible). *)

open Arde.Builder

type consume = [ `Writeback | `Readonly of int | `Blind ]
(* [`Blind] stores without loading: exactly one racy context per group
   when the ordering is invisible. *)

let produce_flag ~data ~flag gidx =
  [
    store (gi data (imm gidx)) (imm ((gidx * 3) + 1));
    store (gi flag (imm gidx)) (imm 1);
  ]

let produce_cv_gate ~data ~gate ~cv ~m gidx =
  [
    store (gi data (imm gidx)) (imm ((gidx * 5) + 2));
    lock (g m);
    store (gi gate (imm gidx)) (imm 1);
    unlock (g m);
    broadcast (gi cv (imm gidx));
  ]

let produce_locked_flag ~data ~flag ~m gidx =
  [
    store (gi data (imm gidx)) (imm ((gidx * 3) + 1));
    lock (g m);
    store (gi flag (imm gidx)) (imm 1);
    unlock (g m);
  ]

(* The consumption instructions for one group: a mutation or [sites]
   distinct reads. *)
let consumption ~tag ~data gidx = function
  | `Writeback ->
      (* Two update rounds: under the long-running state machine the first
         unsynchronized access only arms the cell, so a single mutation
         would never be reported — and real consumers touch their cells
         repeatedly anyway. *)
      [
        load (tag ^ "_v") (gi data (imm gidx));
        addi (tag ^ "_v1") (r (tag ^ "_v")) (imm 1);
        store (gi data (imm gidx)) (r (tag ^ "_v1"));
        load (tag ^ "_w") (gi data (imm gidx));
        muli (tag ^ "_w1") (r (tag ^ "_w")) (imm 3);
        store (gi data (imm gidx)) (r (tag ^ "_w1"));
      ]
  | `Readonly sites ->
      mov (tag ^ "_acc") (imm 0)
      :: List.concat
           (List.init sites (fun s ->
                [
                  load (Printf.sprintf "%s_r%d" tag s) (gi data (imm gidx));
                  addi (tag ^ "_acc") (r (tag ^ "_acc"))
                    (r (Printf.sprintf "%s_r%d" tag s));
                ]))
  | `Blind ->
      [ store (gi data (imm gidx)) (imm 99); store (gi data (imm gidx)) (imm 98) ]

(* Generic unrolled consumer: for each group, [gate_blocks] (ending with a
   jump to "<tag>_wrk") followed by the consumption block and an optional
   per-group epilogue (used to hand the group over to a second consumer
   through the same idiom). *)
let consumer ?(epilogue = fun _ -> []) ~fname ~data ~consume:ckind ~gate_blocks
    gs =
  let rec chain = function
    | [] -> [ blk "fin" [] exit_t ]
    | gidx :: rest ->
        let tag = Printf.sprintf "g%d" gidx in
        let next =
          match rest with [] -> "fin" | g' :: _ -> Printf.sprintf "g%d_t" g'
        in
        gate_blocks ~tag gidx
        @ [
            blk (tag ^ "_wrk")
              (consumption ~tag ~data gidx ckind @ epilogue gidx)
              (goto next);
          ]
        @ chain rest
  in
  let entry_target =
    match gs with [] -> "fin" | gidx :: _ -> Printf.sprintf "g%d_t" gidx
  in
  func fname (blk "entry" [] (goto entry_target) :: chain gs)

let flag_gate ~flag ~window ~tag gidx =
  Racey_base.spin_flag ~tag ~flag:(gi flag (imm gidx)) ~window
    ~exit_lbl:(tag ^ "_wrk")

let fptr_gate ~fptr_slot ~tag gidx =
  Racey_base.spin_flag_fptr ~tag ~fptr_slot ~idx:(imm gidx)
    ~exit_lbl:(tag ^ "_wrk")

let locked_flag_gate ~flag ~m ~tag gidx =
  [
    blk (tag ^ "_t")
      [ lock (g m); load (tag ^ "_f") (gi flag (imm gidx)); unlock (g m) ]
      (br (r (tag ^ "_f")) (tag ^ "_wrk") (tag ^ "_t"));
  ]

let cv_gate ~gate ~cv ~m ~tag gidx =
  [
    blk (tag ^ "_t")
      [ lock (g m); load (tag ^ "_f") (gi gate (imm gidx)) ]
      (br (r (tag ^ "_f")) (tag ^ "_go") (tag ^ "_sl"));
    blk (tag ^ "_sl") [ wait (gi cv (imm gidx)) (g m) ] (goto (tag ^ "_go"));
    blk (tag ^ "_go") [ unlock (g m) ] (goto (tag ^ "_wrk"));
  ]

(* Split [n] groups into at most [k] consecutive non-empty chunks. *)
let chunks ~k n =
  let k = max 1 (min k n) in
  let base = n / k and extra = n mod k in
  let rec go start i =
    if i >= k then []
    else
      let len = base + if i < extra then 1 else 0 in
      List.init len (fun j -> start + j) :: go (start + len) (i + 1)
  in
  List.filter (fun l -> l <> []) (go 0 0)
