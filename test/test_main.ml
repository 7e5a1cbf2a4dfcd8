let () =
  (* The serve tests start a supervisor that re-execs THIS binary as its
     worker processes; the hook must intercept the marker before
     alcotest ever sees argv. *)
  Arde_server.Worker.hook ();
  Alcotest.run "arde"
    [
      ("util", Test_util.suite);
      ("vclock", Test_vclock.suite);
      ("tir", Test_tir.suite);
      ("cfg", Test_cfg.suite);
      ("parse", Test_parse.suite);
      ("runtime", Test_runtime.suite);
      ("machine-edge", Test_machine_edge.suite);
      ("detect", Test_detect.suite);
      ("extensions", Test_extensions.suite);
      ("spin-runtime", Test_spin_runtime.suite);
      ("hb-edges", Test_hb_edges.suite);
      ("smoke", Test_smoke.suite);
      ("workloads", Test_workloads.suite);
      ("props", Test_props.suite);
      ("fuzz", Test_fuzz.suite);
      ("robustness", Test_robustness.suite);
      ("server", Test_server.suite);
      ("replay", Test_replay.suite);
      ("predict", Test_predict.suite);
      ("parallel", Test_parallel.suite);
      ("engine-diff", Test_engine_diff.suite);
      ("engine-ws", Test_engine_ws.suite);
      ("machine-diff", Test_machine_diff.suite);
      ("harness", Test_harness.suite);
      ("integration", Test_integration.suite);
    ]
