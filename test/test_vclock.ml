(* Vector clocks: unit tests plus qcheck lattice laws. *)

module Vc = Arde_vclock.Vector_clock

let vc = Alcotest.testable Vc.pp Vc.equal

let test_bottom () =
  Alcotest.(check bool) "bottom is bottom" true (Vc.is_bottom Vc.bottom);
  Alcotest.(check int) "bottom components are 0" 0 (Vc.get Vc.bottom 5)

let test_inc_get () =
  let c = Vc.inc (Vc.inc Vc.bottom 2) 2 in
  Alcotest.(check int) "incremented twice" 2 (Vc.get c 2);
  Alcotest.(check int) "others still 0" 0 (Vc.get c 0)

let test_set_trims () =
  let c = Vc.set (Vc.set Vc.bottom 4 7) 4 0 in
  Alcotest.(check bool) "trailing zeros trimmed to bottom" true (Vc.is_bottom c)

let test_join () =
  let a = Vc.of_list [ 1; 5; 0; 2 ] and b = Vc.of_list [ 3; 1; 4 ] in
  Alcotest.check vc "pointwise max" (Vc.of_list [ 3; 5; 4; 2 ]) (Vc.join a b)

let test_leq () =
  let a = Vc.of_list [ 1; 2 ] and b = Vc.of_list [ 1; 3; 1 ] in
  Alcotest.(check bool) "a <= b" true (Vc.leq a b);
  Alcotest.(check bool) "not b <= a" false (Vc.leq b a)

let test_size_words () =
  Alcotest.(check bool) "longer clocks cost more" true
    (Vc.size_words (Vc.of_list [ 1; 1; 1; 1 ]) > Vc.size_words Vc.bottom)

(* qcheck generators and laws *)

let gen_vc =
  QCheck2.Gen.(map Vc.of_list (list_size (int_bound 8) (int_bound 20)))

let law name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    law "join is commutative" (QCheck2.Gen.pair gen_vc gen_vc) (fun (a, b) ->
        Vc.equal (Vc.join a b) (Vc.join b a));
    law "join is associative"
      (QCheck2.Gen.triple gen_vc gen_vc gen_vc)
      (fun (a, b, c) ->
        Vc.equal (Vc.join a (Vc.join b c)) (Vc.join (Vc.join a b) c));
    law "join is idempotent" gen_vc (fun a -> Vc.equal (Vc.join a a) a);
    law "bottom is the unit" gen_vc (fun a -> Vc.equal (Vc.join a Vc.bottom) a);
    law "operands precede their join" (QCheck2.Gen.pair gen_vc gen_vc)
      (fun (a, b) -> Vc.leq a (Vc.join a b) && Vc.leq b (Vc.join a b));
    law "leq is reflexive" gen_vc (fun a -> Vc.leq a a);
    law "leq is antisymmetric" (QCheck2.Gen.pair gen_vc gen_vc) (fun (a, b) ->
        (not (Vc.leq a b && Vc.leq b a)) || Vc.equal a b);
    law "inc strictly increases" (QCheck2.Gen.pair gen_vc (QCheck2.Gen.int_bound 7))
      (fun (a, t) ->
        let b = Vc.inc a t in
        Vc.leq a b && not (Vc.leq b a));
    law "to_list round-trips" gen_vc (fun a ->
        Vc.equal a (Vc.of_list (Vc.to_list a)));
    (* Equivalence of the mutable epoch-carrying clock with the pure
       ops: random interleavings of tick / snapshot-and-join / re-join
       of a stale snapshot across three owned clocks must leave every
       clock equal to a pure model driven by inc/join.  The re-join arm
       matters: it hits the O(1) already-absorbed skip, which must be a
       semantic no-op. *)
    law "mutable epoch clocks agree with pure ops"
      QCheck2.Gen.(
        list_size (int_bound 48)
          (triple (int_bound 2) (int_bound 2) (int_bound 31)))
      (fun ops ->
        let n = 3 and cap = 8 in
        let ms = Array.init n (fun i -> Vc.make_mut ~owner:i cap) in
        let pure = Array.make n Vc.bottom in
        let hist = ref [] in
        List.iter
          (fun (k, i, x) ->
            match k with
            | 0 ->
                Vc.mtick ms.(i) (x mod cap);
                pure.(i) <- Vc.inc pure.(i) (x mod cap)
            | 1 ->
                let j = x mod n in
                let s = Vc.snapshot ms.(j) in
                hist := (s, pure.(j)) :: !hist;
                Vc.mjoin ms.(i) s;
                pure.(i) <- Vc.join pure.(i) pure.(j)
            | _ -> (
                match !hist with
                | [] -> ()
                | h ->
                    let s, ps = List.nth h (x mod List.length h) in
                    Vc.mjoin ms.(i) s;
                    pure.(i) <- Vc.join pure.(i) ps))
          ops;
        Array.for_all2 (fun m p -> Vc.equal (Vc.snapshot m) p) ms pure);
    law "own snapshots are already absorbed" gen_vc (fun a ->
        let m = Vc.make_mut ~owner:0 12 in
        Vc.mjoin m a;
        Vc.mtick m 0;
        let s = Vc.snapshot m in
        Vc.mjoin m s;
        (not (Vc.mjoin_changed m s)) && Vc.equal (Vc.snapshot m) s);
    law "mjoin_changed reports exactly growth"
      (QCheck2.Gen.pair gen_vc gen_vc)
      (fun (a, b) ->
        let m = Vc.make_mut 12 in
        Vc.mjoin m a;
        let before = Vc.snapshot m in
        let changed = Vc.mjoin_changed m b in
        let after = Vc.snapshot m in
        changed = not (Vc.equal before after)
        && Vc.equal after (Vc.join a b));
    law "provenance is invisible to the lattice" gen_vc (fun a ->
        let m = Vc.make_mut ~owner:1 12 in
        Vc.mjoin m a;
        Vc.mtick m 1;
        let s = Vc.snapshot m in
        let plain = Vc.of_list (List.init 12 (Vc.mget m)) in
        Vc.equal s plain && Vc.leq s plain && Vc.leq plain s);
    law "mjoin_raise_changed joins the clock and the epoch"
      QCheck2.Gen.(pair (pair gen_vc gen_vc) (pair (int_bound 11) (int_bound 30)))
      (fun ((a, b), (u, k)) ->
        let m = Vc.make_mut 12 in
        Vc.mjoin m a;
        let before = Vc.snapshot m in
        let changed = Vc.mjoin_raise_changed m b u k in
        let after = Vc.snapshot m in
        changed = not (Vc.equal before after)
        && Vc.equal after (Vc.join (Vc.join a b) (Vc.set Vc.bottom u k)));
    law "mclear restores a fresh clock" (QCheck2.Gen.pair gen_vc gen_vc)
      (fun (a, b) ->
        let m = Vc.make_mut ~owner:0 12 in
        Vc.mjoin m a;
        Vc.mtick m 0;
        Vc.mclear m;
        let fresh = Vc.m_is_bottom m in
        Vc.mjoin m b;
        fresh && Vc.equal (Vc.snapshot m) b);
  ]

let suite =
  [
    Alcotest.test_case "bottom" `Quick test_bottom;
    Alcotest.test_case "inc/get" `Quick test_inc_get;
    Alcotest.test_case "set trims" `Quick test_set_trims;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "leq" `Quick test_leq;
    Alcotest.test_case "size accounting" `Quick test_size_words;
  ]
  @ props
