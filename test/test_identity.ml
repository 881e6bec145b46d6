(* The byte-identity gate of the record format. Every line the service
   writes to a socket or a journal is rendered here from fixed values and
   compared with its exact text; a fixed corpus of hostile, foreign and
   malformed lines is parsed and the decoded result compared field by
   field. The expected strings were recorded from the codecs as they
   stood before the record module was shared, so a refactor of the
   codec that moves one byte, or that starts accepting or rejecting a
   line the old code treated otherwise, fails here under the case's
   name. The round-trip tests in [test_service] do not pin bytes. *)

module E = Core.Experiments
module W = Service.Wire

(* ---- fixed values ---- *)

let hostile = "a|b=c%d\ne"

let cell ?(sat = E.Holds) ?(exh = E.Holds) ?(sim = true) () =
  {
    E.policy_label = "submod+release";
    scope_tag = "2p2v/4st";
    sat_verdict = sat;
    sim_ok = sim;
    exhaustive = exh;
    cell_seconds = 0.4125;
    origin = E.Computed;
  }

let spec_rec verdict =
  {
    Service.Speccheck.rec_digest = "9af31c02";
    rec_req = "uniqueID";
    rec_cmd = "check uniqueID";
    rec_certify = true;
    rec_verdict = verdict;
    rec_secs = 0.125;
  }

let diag hint =
  {
    Alloylite.Diag.stage = Alloylite.Diag.Parse;
    span = { Alloylite.Diag.line = 3; col = 7; end_line = 3; end_col = 9 };
    msg = "expected }";
    hint;
  }

(* ---- the renderings ---- *)

let responses =
  [
    ( "verdict",
      W.Verdict
        {
          W.req_id = "r1";
          sat = E.Holds;
          exhaustive = E.Violated;
          sim_ok = true;
          rung = "cdcl";
          cached = false;
          secs = 0.41;
        } );
    ( "verdict-unknown",
      W.Verdict
        {
          W.req_id = hostile;
          sat = E.Undecided hostile;
          exhaustive = E.Undecided "deadline 2s";
          sim_ok = false;
          rung = "none";
          cached = true;
          secs = 1.0 /. 3.0;
        } );
    ( "spec",
      W.Spec
        {
          W.spec_id = "s1";
          digest = "9af31c02";
          command = "check uniqueID";
          spec_verdict = W.Spec_holds;
          certified = true;
          spec_cached = false;
          spec_secs = 0.12;
        } );
    ( "spec-unknown",
      W.Spec
        {
          W.spec_id = "";
          digest = "";
          command = hostile;
          spec_verdict = W.Spec_unknown hostile;
          certified = false;
          spec_cached = true;
          spec_secs = 0.0;
        } );
    ("shed", W.Shed { req_id = "r2"; depth = 8; capacity = 8 });
    ( "quota",
      W.Quota { req_id = "s2"; tenant = "mallory|x"; retry_after_s = 0.18 } );
    ("bad-spec", W.Bad_spec { req_id = "s3"; diag = diag None });
    ("bad-spec-hint", W.Bad_spec { req_id = "s4"; diag = diag (Some hostile) });
    ("error", W.Error { req_id = "r3"; msg = "unknown policy \"x|y\"" });
    ("stats", W.Stats [ ("accepted", 12); ("tenant.a|b.served", 3) ]);
    ("stats-empty", W.Stats []);
    ("fenced", W.Fenced { req_id = "r9"; fenced_epoch = 2 });
    ("repl-ack", W.Repl_ack { repl_epoch = 1; repl_from = 4; repl_have = 6 });
    ( "repl-frame",
      W.Repl_frame
        {
          frame_idx = 4;
          frame_fp = "9af31c02";
          frame_rec = E.cell_record ~seed:1 (cell ());
        } );
  ]

let spec_verdicts =
  [
    W.Spec_holds; W.Spec_counterexample; W.Spec_instance; W.Spec_none;
    W.Spec_unknown hostile;
  ]

let render_cases () =
  List.concat
    [
      [
        ( "request",
          W.render_request
            (W.request ~id:hostile ~agents:3 ~items:2 ~states:4 ~values:5
               ~seed:9 ~deadline_s:2.5 ~epoch:7 "submod+release") );
        ("request-defaults", W.render_request (W.request "submod"));
        ("stats-request", W.stats_request);
        ("fence", W.render_fence ~id:hostile ~epoch:3);
        ("repl-hello", W.render_repl_hello ~id:"sb1" ~from:4);
        ( "submit",
          W.render_submit_header
            (W.submit ~id:"s1" ~tenant:hostile ~cmd:"check a|b" ~certify:true
               ~deadline_s:1.5 ~spec_bytes:212 ()) );
        ( "submit-defaults",
          W.render_submit_header (W.submit ~spec_bytes:0 ()) );
      ];
      List.map (fun (n, r) -> ("response-" ^ n, W.render_response r)) responses;
      List.mapi
        (fun i v -> (Printf.sprintf "spec-verdict-%d" i, W.spec_verdict_to_wire v))
        spec_verdicts;
      [
        ("cell", E.cell_record ~seed:1 (cell ()));
        ( "cell-violated",
          E.cell_record ~seed:42 (cell ~sat:E.Violated ~exh:E.Holds ~sim:false ()) );
        ( "cell-undecided",
          E.cell_record ~seed:1
            (cell ~sat:(E.Undecided hostile) ~exh:(E.Undecided "quarantined") ()) );
        ("spec-record", Service.Speccheck.spec_record (spec_rec W.Spec_holds));
        ( "spec-record-unknown",
          Service.Speccheck.spec_record (spec_rec (W.Spec_unknown hostile)) );
      ];
    ]

(* ---- the cluster's journal, from a scripted single-worker fleet ---- *)

(* One dispatcher, no heartbeat and a worker that answers every check
   with the same verdict make the coordinator's journal a fixed
   sequence: the epoch marker, then a dispatch intent and an
   epoch-stamped cell record per cell, in task order. *)
let cluster_journal () =
  let fake = Test_cluster.start_fake Test_cluster.always_holds in
  let journal = Test_cluster.temp_path ".wal" in
  Fun.protect
    ~finally:(fun () ->
      Test_cluster.stop_fake fake;
      try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      let cfg =
        {
          (Test_cluster.mk_ccfg ~dispatchers:1 ~heartbeat:0.0 ~journal
             [ fake.Test_cluster.f_addr ])
          with
          Service.Cluster.epoch = 3;
        }
      in
      ignore
        (Service.Cluster.run_sweep ~scopes:[ Test_cluster.scope3 ] cfg
          : Service.Cluster.report);
      (Parallel.Journal.read journal).Parallel.Journal.entries)

(* ---- decoded results, shown field by field ---- *)

let show_verdict = function
  | E.Holds -> "Holds"
  | E.Violated -> "Violated"
  | E.Undecided r -> Printf.sprintf "Undecided %S" r

let show_opt f = function None -> "None" | Some x -> "Some " ^ f x

let show_spec_verdict = function
  | W.Spec_holds -> "holds"
  | W.Spec_counterexample -> "counterexample"
  | W.Spec_instance -> "instance"
  | W.Spec_none -> "none"
  | W.Spec_unknown r -> Printf.sprintf "unknown %S" r

let show_result f = function
  | Ok x -> "Ok " ^ f x
  | Result.Error msg -> Printf.sprintf "Error %S" msg

let show_incoming = function
  | W.Check r ->
      Printf.sprintf "Check id=%S policy=%S n=%d j=%d st=%d vals=%d seed=%d \
                      deadline=%s epoch=%s"
        r.W.id r.W.policy r.W.agents r.W.items r.W.states r.W.values r.W.seed
        (show_opt (Printf.sprintf "%g") r.W.deadline_s)
        (show_opt string_of_int r.W.epoch)
  | W.Submit h ->
      Printf.sprintf "Submit id=%S tenant=%S bytes=%d cmd=%s certify=%b \
                      deadline=%s"
        h.W.sub_id h.W.tenant h.W.spec_bytes
        (show_opt (Printf.sprintf "%S") h.W.sub_cmd)
        h.W.certify
        (show_opt (Printf.sprintf "%g") h.W.sub_deadline_s)
  | W.Get_stats -> "Get_stats"
  | W.Fence { fence_id; fence_epoch } ->
      Printf.sprintf "Fence id=%S epoch=%d" fence_id fence_epoch
  | W.Repl_hello { repl_id; repl_from } ->
      Printf.sprintf "Repl_hello id=%S from=%d" repl_id repl_from

let show_response = function
  | W.Verdict v ->
      Printf.sprintf "Verdict id=%S sat=%s exh=%s sim=%b rung=%S cached=%b \
                      secs=%g"
        v.W.req_id (show_verdict v.W.sat) (show_verdict v.W.exhaustive)
        v.W.sim_ok v.W.rung v.W.cached v.W.secs
  | W.Spec s ->
      Printf.sprintf "Spec id=%S digest=%S cmd=%S verdict=%s cert=%b \
                      cached=%b secs=%g"
        s.W.spec_id s.W.digest s.W.command
        (show_spec_verdict s.W.spec_verdict)
        s.W.certified s.W.spec_cached s.W.spec_secs
  | W.Shed { req_id; depth; capacity } ->
      Printf.sprintf "Shed id=%S depth=%d cap=%d" req_id depth capacity
  | W.Quota { req_id; tenant; retry_after_s } ->
      Printf.sprintf "Quota id=%S tenant=%S retry=%g" req_id tenant
        retry_after_s
  | W.Bad_spec { req_id; diag = d } ->
      Printf.sprintf "Bad_spec id=%S stage=%s span=%d:%d-%d:%d msg=%S hint=%s"
        req_id
        (Alloylite.Diag.stage_name d.Alloylite.Diag.stage)
        d.span.line d.span.col d.span.end_line d.span.end_col d.msg
        (show_opt (Printf.sprintf "%S") d.hint)
  | W.Error { req_id; msg } -> Printf.sprintf "Error id=%S msg=%S" req_id msg
  | W.Stats kvs ->
      "Stats "
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S=%d" k v) kvs)
  | W.Fenced { req_id; fenced_epoch } ->
      Printf.sprintf "Fenced id=%S epoch=%d" req_id fenced_epoch
  | W.Repl_ack { repl_epoch; repl_from; repl_have } ->
      Printf.sprintf "Repl_ack epoch=%d from=%d have=%d" repl_epoch repl_from
        repl_have
  | W.Repl_frame { frame_idx; frame_fp; frame_rec } ->
      Printf.sprintf "Repl_frame idx=%d fp=%S rec=%S" frame_idx frame_fp
        frame_rec

let show_cell (seed, (c : E.sweep_cell)) =
  Printf.sprintf "seed=%d scope=%S policy=%S sat=%s exh=%s sim=%b secs=%g" seed
    c.E.scope_tag c.E.policy_label (show_verdict c.E.sat_verdict)
    (show_verdict c.E.exhaustive) c.E.sim_ok c.E.cell_seconds

let show_spec_record (r : Service.Speccheck.record) =
  Printf.sprintf "digest=%S req=%S cmd=%S certify=%b verdict=%s secs=%g"
    r.Service.Speccheck.rec_digest r.rec_req r.rec_cmd r.rec_certify
    (show_spec_verdict r.rec_verdict)
    r.rec_secs

(* ---- the parse corpus ---- *)

let good_cell = E.cell_record ~seed:1 (cell ())
let good_spec = Service.Speccheck.spec_record (spec_rec W.Spec_holds)

(* [s] with the first occurrence of [a] replaced by [b] *)
let replace_first s a b =
  let la = String.length a and ls = String.length s in
  let rec find i =
    if i + la > ls then s
    else if String.sub s i la = a then
      String.sub s 0 i ^ b ^ String.sub s (i + la) (ls - i - la)
    else find (i + 1)
  in
  find 0

(* [s] up to the first occurrence of [a] *)
let before s a =
  let r = replace_first s a "\000" in
  String.sub r 0 (String.index r '\000')

let incoming_corpus =
  [
    "check|1|id=r1|policy=submod|n=2|j=2|st=5|vals=6|seed=1";
    "check|1|id=r%7c1|policy=submod%3dx|n=3|j=2|st=4|vals=5|seed=9|deadline=2.500000|epoch=7";
    "check|1|policy=submod|n=2|j=2|st=5|vals=6|future=1|flag";
    "check|1|id=d|id=e|policy=submod|n=2|j=2|st=5|vals=6";
    "check|1|id=r1|n=2|j=2|st=5|vals=6";
    "check|1|policy=submod|n=0|j=2|st=5|vals=6";
    "check|1|policy=submod|n=2|j=-1|st=5|vals=6";
    "check|1|policy=submod|n=2|j=2|st=five|vals=6";
    "check|1|policy=submod|n=2|j=2|st=5";
    "check|1|policy=submod|n=2|j=2|st=5|vals=6|seed=x";
    "check|1|policy=submod|n=2|j=2|st=5|vals=6|deadline=0";
    "check|1|policy=submod|n=2|j=2|st=5|vals=6|deadline=soon";
    "check|1|policy=submod|n=2|j=2|st=5|vals=6|epoch=x";
    "check|2|policy=submod|n=2|j=2|st=5|vals=6";
    "stats|1";
    "stats|1|extra=1";
    "fence|1|id=co2|epoch=2";
    "fence|1|id=co2|epoch=0";
    "fence|1|id=co2";
    "repl-hello|1|id=sb1|from=4";
    "repl-hello|1|from=-1";
    "submit|1|id=s1|tenant=alice|bytes=212|cmd=check%7ca|certify=true|deadline=1.5";
    "submit|1|bytes=0";
    "submit|1|bytes=12|certify=maybe";
    "submit|1|id=s1|bytes=-1";
    "submit|1|id=s1|bytes=1048577";
    "submit|1|id=s1";
    "submit|1|bytes=5|deadline=-1";
    "verdict|1|id=r1|proto=1|sat=holds|exh=holds|sim=true";
    "bogus|1|x=1";
    "check";
    "";
    "|1|policy=submod";
  ]

let response_corpus =
  [
    "verdict|1|id=r1|proto=1|sat=holds|exh=violated|sim=true|rung=cdcl|cached=false|secs=0.410000";
    "verdict|1|id=r%7c1|proto=2|sat=unknown:deadline%3d2s%7cx|exh=unknown:|sim=false|rung=none|cached=true|secs=1|future=x";
    "verdict|1|sat=holds|exh=holds|sim=true";
    "verdict|1|id=r1|exh=holds|sim=true";
    "verdict|1|id=r1|sat=maybe|exh=holds|sim=true";
    "verdict|1|id=r1|sat=holds|exh=holds";
    "verdict|1|id=r1|sat=holds|exh=holds|sim=yes";
    "verdict|1|id=r1|sat=holds|exh=holds|sim=true|cached=perhaps|secs=x";
    "spec|1|id=s1|proto=1|digest=9af|cmd=check%20a|verdict=counterexample|cert=true|cached=false|secs=0.12";
    "spec|1|id=s1|verdict=unknown:budget%7cx";
    "spec|1|id=s1|cmd=check a";
    "spec|1|id=s1|verdict=sometimes";
    "shed|1|id=r2|proto=1|depth=8|cap=8";
    "shed|1";
    "quota|1|id=s2|proto=1|tenant=mallory|retry=0.180";
    "quota|1|retry=soon";
    "error|1|id=r3|proto=1|msg=unknown policy";
    "error|1|id=s3|proto=1|stage=parse|line=3|col=7|eline=3|ecol=9|msg=parse error: line 3, col 7: expected } (hint: close it)|hint=close it";
    "error|1|id=s3|stage=lex|msg=bad char";
    "error|1|id=s3|stage=unheard|msg=x";
    "stats|1|proto=1|accepted=12|tenant.a%7cb.served=3|bogus=x|flag";
    "fenced|1|id=r9|proto=1|epoch=2";
    "fenced|1|id=r9";
    "repl-ack|1|proto=1|epoch=1|from=4|have=6";
    "repl-ack|1|epoch=1|from=-1|have=6";
    "repl-ack|1|epoch=1|from=4";
    "repl-frame|1|idx=4|fp=9af31c02|rec=cell%7c1%7cseed%3d1";
    "repl-frame|1|idx=-1|fp=x|rec=y";
    "repl-frame|1|idx=4|fp=x";
    "check|1|policy=submod";
    "verdict|one|sat=holds";
    "";
  ]

let cell_corpus =
  [
    ("cell", good_cell);
    ("cell-epoch-stamped", good_cell ^ "|epoch=5");
    ("cell-unknown-key", replace_first good_cell "|sim=" "|later=1|sim=");
    ("cell-tampered-verdict", replace_first good_cell "sat=holds" "sat=violated");
    ("cell-tampered-seed", replace_first good_cell "seed=1|" "seed=2|");
    ("cell-tampered-cert", replace_first good_cell "|cert=" "|cert=0");
    ("cell-missing-secs", replace_first good_cell "|secs=0.412500" "");
    ("cell-bad-secs", replace_first good_cell "secs=0.412500" "secs=fast");
    ("cell-missing-cert", before good_cell "|cert=");
    ("cell-wrong-version", replace_first good_cell "cell|1|" "cell|2|");
    ("cell-undecided",
      E.cell_record ~seed:3 (cell ~sat:(E.Undecided hostile) ~exh:E.Violated ()));
    ("cell-foreign-disp", "disp|1|seed=1|key=2p2v/submod|worker=0|attempt=1");
    ("cell-foreign-spec", good_spec);
    ("cell-empty", "");
  ]

let spec_corpus =
  [
    ("spec", good_spec);
    ("spec-epoch-stamped", good_spec ^ "|epoch=5");
    ("spec-unknown-key", replace_first good_spec "|secs=" "|later=1|secs=");
    ("spec-tampered-verdict", replace_first good_spec "verdict=holds" "verdict=none");
    ("spec-tampered-certify", replace_first good_spec "certify=true" "certify=false");
    ("spec-missing-fp", replace_first good_spec "|fp=" "|xfp=");
    ("spec-missing-req", replace_first good_spec "|req=uniqueID" "");
    ( "spec-unknown-verdict",
      Service.Speccheck.spec_record (spec_rec (W.Spec_unknown hostile)) );
    ("spec-foreign-cell", good_cell);
    ("spec-wrong-version", replace_first good_spec "spec|1|" "spec|2|");
  ]

let epoch_corpus =
  [
    [];
    [ "epoch|1|seed=1|epoch=3" ];
    [ good_cell ^ "|epoch=5"; "epoch|1|seed=1|epoch=3" ];
    [ "disp|1|seed=1|key=k|worker=0|attempt=1|epoch=4|epoch=9" ];
    [ "epoch|1|seed=1|epoch=x"; "x|2|epoch=99"; "epoch=12"; good_spec ];
  ]

let latest_epoch_of lines =
  let path = Test_cluster.temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Parallel.Journal.open_append path in
      List.iter (Parallel.Journal.append w) lines;
      Parallel.Journal.close w;
      Service.Cluster.latest_epoch path)

let parse_cases () =
  List.concat
    [
      List.mapi
        (fun i l ->
          ( Printf.sprintf "incoming-%02d" i,
            show_result show_incoming (W.parse_incoming l) ))
        incoming_corpus;
      List.mapi
        (fun i l ->
          ( Printf.sprintf "response-%02d" i,
            show_result show_response (W.parse_response l) ))
        response_corpus;
      List.map
        (fun (n, l) -> (n, show_opt show_cell (E.cell_of_record l)))
        cell_corpus;
      List.map
        (fun (n, l) ->
          (n, show_opt show_spec_record (Service.Speccheck.spec_of_record l)))
        spec_corpus;
      List.mapi
        (fun i ls ->
          (Printf.sprintf "latest-epoch-%d" i, string_of_int (latest_epoch_of ls)))
        epoch_corpus;
    ]

(* ---- recorded expectations ---- *)

let expected_render =
  [
    ("request",
     {|check|1|id=a%7cb%3dc%25d%0ae|policy=submod+release|n=3|j=2|st=4|vals=5|seed=9|deadline=2.500000|epoch=7|});
    ("request-defaults",
     {|check|1|id=|policy=submod|n=2|j=2|st=5|vals=6|seed=1|});
    ("stats-request",
     {|stats|1|});
    ("fence",
     {|fence|1|id=a%7cb%3dc%25d%0ae|epoch=3|});
    ("repl-hello",
     {|repl-hello|1|id=sb1|from=4|});
    ("submit",
     {|submit|1|id=s1|tenant=a%7cb%3dc%25d%0ae|bytes=212|cmd=check a%7cb|certify=true|deadline=1.500000|});
    ("submit-defaults",
     {|submit|1|id=|tenant=|bytes=0|});
    ("response-verdict",
     {|verdict|1|id=r1|proto=1|sat=holds|exh=violated|sim=true|rung=cdcl|cached=false|secs=0.410000|});
    ("response-verdict-unknown",
     {|verdict|1|id=a%7cb%3dc%25d%0ae|proto=1|sat=unknown:a%7cb%3dc%25d%0ae|exh=unknown:deadline 2s|sim=false|rung=none|cached=true|secs=0.333333|});
    ("response-spec",
     {|spec|1|id=s1|proto=1|digest=9af31c02|cmd=check uniqueID|verdict=holds|cert=true|cached=false|secs=0.120000|});
    ("response-spec-unknown",
     {|spec|1|id=|proto=1|digest=|cmd=a%7cb%3dc%25d%0ae|verdict=unknown:a%7cb%3dc%25d%0ae|cert=false|cached=true|secs=0.000000|});
    ("response-shed",
     {|shed|1|id=r2|proto=1|depth=8|cap=8|});
    ("response-quota",
     {|quota|1|id=s2|proto=1|tenant=mallory%7cx|retry=0.180|});
    ("response-bad-spec",
     {|error|1|id=s3|proto=1|stage=parse|line=3|col=7|eline=3|ecol=9|msg=parse error: line 3, col 7: expected }|});
    ("response-bad-spec-hint",
     {|error|1|id=s4|proto=1|stage=parse|line=3|col=7|eline=3|ecol=9|msg=parse error: line 3, col 7: expected } (hint: a%7cb%3dc%25d%0ae)|hint=a%7cb%3dc%25d%0ae|});
    ("response-error",
     {|error|1|id=r3|proto=1|msg=unknown policy "x%7cy"|});
    ("response-stats",
     {|stats|1|proto=1|accepted=12|tenant.a%7cb.served=3|});
    ("response-stats-empty",
     {|stats|1|proto=1|});
    ("response-fenced",
     {|fenced|1|id=r9|proto=1|epoch=2|});
    ("response-repl-ack",
     {|repl-ack|1|proto=1|epoch=1|from=4|have=6|});
    ("response-repl-frame",
     {|repl-frame|1|idx=4|fp=9af31c02|rec=cell%7c1%7cseed%3d1%7cscope%3d2p2v/4st%7cpolicy%3dsubmod+release%7csat%3dholds%7cexh%3dholds%7csim%3dtrue%7csecs%3d0.412500%7ccert%3d0519f39e|});
    ("spec-verdict-0",
     {|holds|});
    ("spec-verdict-1",
     {|counterexample|});
    ("spec-verdict-2",
     {|instance|});
    ("spec-verdict-3",
     {|none|});
    ("spec-verdict-4",
     {|unknown:a%7cb%3dc%25d%0ae|});
    ("cell",
     {|cell|1|seed=1|scope=2p2v/4st|policy=submod+release|sat=holds|exh=holds|sim=true|secs=0.412500|cert=0519f39e|});
    ("cell-violated",
     {|cell|1|seed=42|scope=2p2v/4st|policy=submod+release|sat=violated|exh=holds|sim=false|secs=0.412500|cert=1bd33710|});
    ("cell-undecided",
     {|cell|1|seed=1|scope=2p2v/4st|policy=submod+release|sat=unknown:a%7cb%3dc%25d%0ae|exh=unknown:quarantined|sim=true|secs=0.412500|cert=cbb86a5f|});
    ("spec-record",
     {|spec|1|digest=9af31c02|req=uniqueID|cmd=check uniqueID|certify=true|verdict=holds|secs=0.125000|fp=cde7e180|});
    ("spec-record-unknown",
     {|spec|1|digest=9af31c02|req=uniqueID|cmd=check uniqueID|certify=true|verdict=unknown:a%7cb%3dc%25d%0ae|secs=0.125000|fp=0142206f|});
  ]

let expected_cluster =
  [
    ("journal-0",
     {|epoch|1|seed=1|epoch=3|});
    ("journal-1",
     {|disp|1|seed=1|key=2p2v/3st/submod|worker=0|attempt=1|epoch=3|});
    ("journal-2",
     {|cell|1|seed=1|scope=2p2v/3st|policy=submod|sat=holds|exh=holds|sim=true|secs=0.010000|cert=0e96449b|epoch=3|});
    ("journal-3",
     {|disp|1|seed=1|key=2p2v/3st/submod+release|worker=0|attempt=1|epoch=3|});
    ("journal-4",
     {|cell|1|seed=1|scope=2p2v/3st|policy=submod+release|sat=holds|exh=holds|sim=true|secs=0.010000|cert=06509e25|epoch=3|});
    ("journal-5",
     {|disp|1|seed=1|key=2p2v/3st/nonsubmod|worker=0|attempt=1|epoch=3|});
    ("journal-6",
     {|cell|1|seed=1|scope=2p2v/3st|policy=nonsubmod|sat=holds|exh=holds|sim=true|secs=0.010000|cert=4fc47f81|epoch=3|});
    ("journal-7",
     {|disp|1|seed=1|key=2p2v/3st/nonsubmod+release|worker=0|attempt=1|epoch=3|});
    ("journal-8",
     {|cell|1|seed=1|scope=2p2v/3st|policy=nonsubmod+release|sat=holds|exh=holds|sim=true|secs=0.010000|cert=659a9a6b|epoch=3|});
    ("journal-9",
     {|disp|1|seed=1|key=2p2v/3st/submod+rebid-attack|worker=0|attempt=1|epoch=3|});
    ("journal-10",
     {|cell|1|seed=1|scope=2p2v/3st|policy=submod+rebid-attack|sat=holds|exh=holds|sim=true|secs=0.010000|cert=9a97d656|epoch=3|});
    ("journal-11",
     {|disp|1|seed=1|key=2p2v/3st/nonsubmod+rebid-attack|worker=0|attempt=1|epoch=3|});
    ("journal-12",
     {|cell|1|seed=1|scope=2p2v/3st|policy=nonsubmod+rebid-attack|sat=holds|exh=holds|sim=true|secs=0.010000|cert=20de8cdb|epoch=3|});
  ]

let expected_parse =
  [
    ("incoming-00",
     {|Ok Check id="r1" policy="submod" n=2 j=2 st=5 vals=6 seed=1 deadline=None epoch=None|});
    ("incoming-01",
     {|Ok Check id="r|1" policy="submod=x" n=3 j=2 st=4 vals=5 seed=9 deadline=Some 2.5 epoch=Some 7|});
    ("incoming-02",
     {|Ok Check id="" policy="submod" n=2 j=2 st=5 vals=6 seed=1 deadline=None epoch=None|});
    ("incoming-03",
     {|Ok Check id="d" policy="submod" n=2 j=2 st=5 vals=6 seed=1 deadline=None epoch=None|});
    ("incoming-04",
     {|Error "missing policy"|});
    ("incoming-05",
     {|Error "non-positive n"|});
    ("incoming-06",
     {|Error "non-positive j"|});
    ("incoming-07",
     {|Error "missing st"|});
    ("incoming-08",
     {|Error "missing vals"|});
    ("incoming-09",
     {|Ok Check id="" policy="submod" n=2 j=2 st=5 vals=6 seed=1 deadline=None epoch=None|});
    ("incoming-10",
     {|Error "invalid deadline"|});
    ("incoming-11",
     {|Error "invalid deadline"|});
    ("incoming-12",
     {|Ok Check id="" policy="submod" n=2 j=2 st=5 vals=6 seed=1 deadline=None epoch=None|});
    ("incoming-13",
     {|Error "malformed request line"|});
    ("incoming-14",
     {|Ok Get_stats|});
    ("incoming-15",
     {|Ok Get_stats|});
    ("incoming-16",
     {|Ok Fence id="co2" epoch=2|});
    ("incoming-17",
     {|Error "fence without a positive epoch"|});
    ("incoming-18",
     {|Error "fence without a positive epoch"|});
    ("incoming-19",
     {|Ok Repl_hello id="sb1" from=4|});
    ("incoming-20",
     {|Error "repl-hello without a valid position"|});
    ("incoming-21",
     {|Ok Submit id="s1" tenant="alice" bytes=212 cmd=Some "check|a" certify=true deadline=Some 1.5|});
    ("incoming-22",
     {|Ok Submit id="" tenant="" bytes=0 cmd=None certify=false deadline=None|});
    ("incoming-23",
     {|Ok Submit id="" tenant="" bytes=12 cmd=None certify=false deadline=None|});
    ("incoming-24",
     {|Error "negative bytes"|});
    ("incoming-25",
     {|Error "declared body of 1048577 bytes exceeds framing cap 1048576"|});
    ("incoming-26",
     {|Error "missing bytes"|});
    ("incoming-27",
     {|Error "invalid deadline"|});
    ("incoming-28",
     {|Error "unknown request kind \"verdict\""|});
    ("incoming-29",
     {|Error "unknown request kind \"bogus\""|});
    ("incoming-30",
     {|Error "malformed request line"|});
    ("incoming-31",
     {|Error "malformed request line"|});
    ("incoming-32",
     {|Error "unknown request kind \"\""|});
    ("response-00",
     {|Ok Verdict id="r1" sat=Holds exh=Violated sim=true rung="cdcl" cached=false secs=0.41|});
    ("response-01",
     {|Ok Verdict id="r|1" sat=Undecided "deadline=2s|x" exh=Undecided "" sim=false rung="none" cached=true secs=1|});
    ("response-02",
     {|Ok Verdict id="" sat=Holds exh=Holds sim=true rung="" cached=false secs=0|});
    ("response-03",
     {|Error "missing sat verdict"|});
    ("response-04",
     {|Error "missing sat verdict"|});
    ("response-05",
     {|Error "missing sim flag"|});
    ("response-06",
     {|Error "missing sim flag"|});
    ("response-07",
     {|Ok Verdict id="r1" sat=Holds exh=Holds sim=true rung="" cached=false secs=0|});
    ("response-08",
     {|Ok Spec id="s1" digest="9af" cmd="check%20a" verdict=counterexample cert=true cached=false secs=0.12|});
    ("response-09",
     {|Ok Spec id="s1" digest="" cmd="" verdict=unknown "budget|x" cert=false cached=false secs=0|});
    ("response-10",
     {|Error "missing spec verdict"|});
    ("response-11",
     {|Error "missing spec verdict"|});
    ("response-12",
     {|Ok Shed id="r2" depth=8 cap=8|});
    ("response-13",
     {|Ok Shed id="" depth=0 cap=0|});
    ("response-14",
     {|Ok Quota id="s2" tenant="mallory" retry=0.18|});
    ("response-15",
     {|Ok Quota id="" tenant="" retry=0|});
    ("response-16",
     {|Ok Error id="r3" msg="unknown policy"|});
    ("response-17",
     {|Ok Bad_spec id="s3" stage=parse span=3:7-3:9 msg="expected }" hint=Some "close it"|});
    ("response-18",
     {|Ok Bad_spec id="s3" stage=lex span=1:1-1:1 msg="bad char" hint=None|});
    ("response-19",
     {|Ok Error id="s3" msg="x"|});
    ("response-20",
     {|Ok Stats "accepted"=12,"tenant.a|b.served"=3|});
    ("response-21",
     {|Ok Fenced id="r9" epoch=2|});
    ("response-22",
     {|Error "fenced reply without an epoch"|});
    ("response-23",
     {|Ok Repl_ack epoch=1 from=4 have=6|});
    ("response-24",
     {|Error "malformed repl-ack"|});
    ("response-25",
     {|Error "malformed repl-ack"|});
    ("response-26",
     {|Ok Repl_frame idx=4 fp="9af31c02" rec="cell|1|seed=1"|});
    ("response-27",
     {|Error "malformed repl-frame"|});
    ("response-28",
     {|Error "malformed repl-frame"|});
    ("response-29",
     {|Error "unknown response kind \"check\""|});
    ("response-30",
     {|Error "malformed response line"|});
    ("response-31",
     {|Error "malformed response line"|});
    ("cell",
     {|Some seed=1 scope="2p2v/4st" policy="submod+release" sat=Holds exh=Holds sim=true secs=0.4125|});
    ("cell-epoch-stamped",
     {|Some seed=1 scope="2p2v/4st" policy="submod+release" sat=Holds exh=Holds sim=true secs=0.4125|});
    ("cell-unknown-key",
     {|Some seed=1 scope="2p2v/4st" policy="submod+release" sat=Holds exh=Holds sim=true secs=0.4125|});
    ("cell-tampered-verdict",
     {|None|});
    ("cell-tampered-seed",
     {|None|});
    ("cell-tampered-cert",
     {|None|});
    ("cell-missing-secs",
     {|None|});
    ("cell-bad-secs",
     {|None|});
    ("cell-missing-cert",
     {|None|});
    ("cell-wrong-version",
     {|None|});
    ("cell-undecided",
     {|Some seed=3 scope="2p2v/4st" policy="submod+release" sat=Undecided "a|b=c%d\ne" exh=Violated sim=true secs=0.4125|});
    ("cell-foreign-disp",
     {|None|});
    ("cell-foreign-spec",
     {|None|});
    ("cell-empty",
     {|None|});
    ("spec",
     {|Some digest="9af31c02" req="uniqueID" cmd="check uniqueID" certify=true verdict=holds secs=0.125|});
    ("spec-epoch-stamped",
     {|Some digest="9af31c02" req="uniqueID" cmd="check uniqueID" certify=true verdict=holds secs=0.125|});
    ("spec-unknown-key",
     {|Some digest="9af31c02" req="uniqueID" cmd="check uniqueID" certify=true verdict=holds secs=0.125|});
    ("spec-tampered-verdict",
     {|None|});
    ("spec-tampered-certify",
     {|None|});
    ("spec-missing-fp",
     {|None|});
    ("spec-missing-req",
     {|None|});
    ("spec-unknown-verdict",
     {|Some digest="9af31c02" req="uniqueID" cmd="check uniqueID" certify=true verdict=unknown "a|b=c%d\ne" secs=0.125|});
    ("spec-foreign-cell",
     {|None|});
    ("spec-wrong-version",
     {|None|});
    ("latest-epoch-0",
     {|0|});
    ("latest-epoch-1",
     {|3|});
    ("latest-epoch-2",
     {|5|});
    ("latest-epoch-3",
     {|9|});
    ("latest-epoch-4",
     {|0|});
  ]

let check_table what expected actual =
  Alcotest.(check int) (what ^ ": case count") (List.length expected)
    (List.length actual);
  List.iter2
    (fun (n, e) (n', a) ->
      Alcotest.(check string) (what ^ ": case name") n n';
      Alcotest.(check string) n e a)
    expected actual

let test_render () = check_table "render" expected_render (render_cases ())

let test_cluster_journal () =
  check_table "cluster journal" expected_cluster
    (List.mapi (fun i l -> (Printf.sprintf "journal-%d" i, l)) (cluster_journal ()))

let test_parse () = check_table "parse" expected_parse (parse_cases ())

let suite =
  [
    Alcotest.test_case "every wire and journal line, byte for byte" `Quick
      test_render;
    Alcotest.test_case "cluster journal: epoch, disp and stamped cells" `Quick
      test_cluster_journal;
    Alcotest.test_case "parse corpus: accepted and rejected alike" `Quick
      test_parse;
  ]
