let () =
  Alcotest.run "repro"
    [
      ("util", Test_util.suite);
      ("pool", Test_pool.suite);
      ("srclang", Test_srclang.suite);
      ("interp", Test_interp.suite);
      ("compile", Test_compile.suite);
      ("coverage", Test_coverage.suite);
      ("split", Test_split.suite);
      ("memo", Test_memo.suite);
      ("cache", Test_cache.suite);
      ("analysis", Test_analysis.suite);
      ("devices", Test_devices.suite);
      ("codegen", Test_codegen.suite);
      ("dse", Test_dse.suite);
      ("apps", Test_apps.suite);
      ("flow", Test_flow.suite);
      ("resilience", Test_resilience.suite);
      ("properties", Test_props.suite);
      ("obs", Test_obs.suite);
      ("ledger", Test_ledger.suite);
      ("serve", Test_serve.suite);
    ]
