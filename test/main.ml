let () =
  Alcotest.run "mca_verif"
    [
      ("sat", Test_sat.suite);
      ("solver-pin", Test_solver_pin.suite);
      ("netsim", Test_netsim.suite);
      ("relalg", Test_relalg.suite);
      ("cnf-identity", Test_cnf_identity.suite);
      ("alloylite", Test_alloylite.suite);
      ("mca", Test_mca.suite);
      ("checker", Test_checker.suite);
      ("vnm", Test_vnm.suite);
      ("core", Test_core.suite);
      ("parallel", Test_parallel.suite);
      ("crashsafe", Test_crashsafe.suite);
      ("service", Test_service.suite);
      ("cluster", Test_cluster.suite);
      ("identity", Test_identity.suite);
      ("differential", Test_differential.suite);
    ]
