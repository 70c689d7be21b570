let () =
  Alcotest.run "kfuse"
    [
      ("util", Test_util.suite);
      ("ir", Test_ir.suite);
      ("graph", Test_graph.suite);
      ("fusion", Test_fusion.suite);
      ("sim", Test_sim.suite);
      ("model", Test_model.suite);
      ("search", Test_search.suite);
      ("golden", Test_golden.suite);
      ("stream", Test_stream.suite);
      ("workloads", Test_workloads.suite);
      ("pipeline", Test_pipeline.suite);
      ("robust", Test_robust.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("properties", Test_properties.suite);
      ("arena", Test_arena.suite);
      ("extensions", Test_extensions.suite);
      ("oracle", Test_oracle.suite);
      ("renaming", Test_renaming.suite);
      ("shapes", Test_shapes.suite);
      ("horizontal", Test_horizontal.suite);
    ]
