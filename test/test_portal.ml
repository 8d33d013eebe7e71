(* Tests for the Capacity Portal: admission validation with actionable
   rejection reasons (§5.3). *)

open Ras
module Broker = Ras_broker.Broker
module Generator = Ras_topology.Generator
module Service = Ras_workload.Service
module Capacity_request = Ras_workload.Capacity_request

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

(* the stored request with id [id], read through the shipped [requests] *)
let find portal id =
  List.find_opt (fun r -> r.Capacity_request.id = id) (Portal.requests portal)

let web = Service.make ~id:1 ~name:"web" ~profile:Service.Web ()

let snapshot () =
  let region = Generator.generate Generator.small_params in
  let broker = Broker.create region in
  Snapshot.take broker []

let test_accepts_reasonable_request () =
  let portal = Portal.create () in
  let req = Capacity_request.make ~id:1 ~service:web ~rru:10.0 () in
  (match Portal.submit portal (snapshot ()) req with
  | Portal.Accepted -> ()
  | Portal.Rejected r -> Alcotest.fail r);
  Alcotest.(check int) "stored" 1 (List.length (Portal.requests portal));
  Alcotest.(check bool) "findable" true (find portal 1 <> None)

let test_rejects_impossible_hardware () =
  let portal = Portal.create () in
  (* a service acceptable to nothing: GPU-only with an impossible generation
     window *)
  let impossible =
    Service.make ~id:9 ~name:"impossible" ~profile:Service.Ml_training ~min_generation:3
      ~max_generation:1 ()
  in
  let req = Capacity_request.make ~id:9 ~service:impossible ~rru:1.0 () in
  match Portal.submit portal (snapshot ()) req with
  | Portal.Rejected reason ->
    Alcotest.(check bool) "reason names the service" true (contains reason "impossible");
    Alcotest.(check int) "not stored" 0 (List.length (Portal.requests portal))
  | Portal.Accepted -> Alcotest.fail "must reject"

let test_rejects_oversized_request () =
  let portal = Portal.create () in
  let req = Capacity_request.make ~id:2 ~service:web ~rru:1e6 () in
  match Portal.submit portal (snapshot ()) req with
  | Portal.Rejected reason ->
    Alcotest.(check bool) "reason quantifies supply" true (contains reason "RRU")
  | Portal.Accepted -> Alcotest.fail "must reject"

let test_rejects_overcommit () =
  let portal = Portal.create () in
  let snap = snapshot () in
  (* web-acceptable supply in the small region is ~240 RRU; two requests of
     110 with 1.2x buffer overhead (132 each) cannot both fit *)
  let r1 = Capacity_request.make ~id:1 ~service:web ~rru:110.0 () in
  let r2 = Capacity_request.make ~id:2 ~service:web ~rru:110.0 () in
  (match Portal.submit portal snap r1 with
  | Portal.Accepted -> ()
  | Portal.Rejected r -> Alcotest.fail ("first should fit: " ^ r));
  match Portal.submit portal snap r2 with
  | Portal.Rejected reason ->
    Alcotest.(check bool) "mentions committed capacity" true (contains reason "committed")
  | Portal.Accepted -> Alcotest.fail "second must be rejected"

let test_modify_excludes_own_claim () =
  let portal = Portal.create () in
  let snap = snapshot () in
  let r1 = Capacity_request.make ~id:1 ~service:web ~rru:110.0 () in
  (match Portal.submit portal snap r1 with
  | Portal.Accepted -> ()
  | Portal.Rejected r -> Alcotest.fail r);
  (* growing 110 -> 150 must be judged without double-counting the 110 *)
  let grown = Capacity_request.make ~id:1 ~service:web ~rru:150.0 () in
  (match Portal.modify portal snap grown with
  | Portal.Accepted -> ()
  | Portal.Rejected r -> Alcotest.fail ("modify should pass: " ^ r));
  match find portal 1 with
  | Some r -> Alcotest.(check (float 1e-9)) "stored new size" 150.0 r.Capacity_request.rru
  | None -> Alcotest.fail "lost the request"

let test_delete () =
  let portal = Portal.create () in
  let snap = snapshot () in
  let r1 = Capacity_request.make ~id:1 ~service:web ~rru:5.0 () in
  ignore (Portal.submit portal snap r1);
  Alcotest.(check bool) "delete known" true (Portal.delete portal 1);
  Alcotest.(check bool) "delete unknown" false (Portal.delete portal 77);
  Alcotest.(check bool) "delete twice" false (Portal.delete portal 1);
  Alcotest.(check bool) "not findable" true (find portal 1 = None);
  Alcotest.(check int) "no requests left" 0 (List.length (Portal.requests portal))

let test_buffer_overhead () =
  (* the small region has 6 MSBs: an embedded buffer asks 1 + 1/(6 - 1)
     times the RRUs; the rejection of an oversized request names the need *)
  let need ~embedded_buffer =
    let req = Capacity_request.make ~id:1 ~service:web ~rru:1000.0 ~embedded_buffer () in
    match Portal.submit (Portal.create ()) (snapshot ()) req with
    | Portal.Rejected reason -> reason
    | Portal.Accepted -> Alcotest.fail "1000 RRUs must not fit the small region"
  in
  Alcotest.(check bool) "1 + 1/(msbs-1)" true
    (contains (need ~embedded_buffer:true) "needs 1200.0 including");
  Alcotest.(check bool) "plain 1x" true
    (contains (need ~embedded_buffer:false) "needs 1000.0 including")

let bad_rrus = [ ("nan", Float.nan); ("-1", -1.0); ("infinity", Float.infinity) ]

let test_rejects_non_finite_rru () =
  let snap = snapshot () in
  List.iter
    (fun (label, rru) ->
      Alcotest.check_raises (label ^ ": make refuses")
        (Invalid_argument "Capacity_request.make: rru must be finite and positive") (fun () ->
          ignore (Capacity_request.make ~id:3 ~service:web ~rru ()));
      let portal = Portal.create () in
      let ok = Capacity_request.make ~id:3 ~service:web ~rru:5.0 () in
      let bad = { ok with Capacity_request.rru } in
      (match Portal.submit portal snap bad with
      | Portal.Rejected reason ->
        Alcotest.(check bool) (label ^ ": submit reason names the rule") true
          (contains reason "finite positive")
      | Portal.Accepted -> Alcotest.failf "%s: submit must reject" label);
      Alcotest.(check int) (label ^ ": not stored") 0 (List.length (Portal.requests portal));
      ignore (Portal.submit portal snap ok);
      (match Portal.modify portal snap bad with
      | Portal.Rejected _ -> ()
      | Portal.Accepted -> Alcotest.failf "%s: modify must reject" label);
      match find portal 3 with
      | Some r -> Alcotest.(check (float 0.0)) (label ^ ": old size kept") 5.0 r.Capacity_request.rru
      | None -> Alcotest.failf "%s: lost the accepted request" label)
    bad_rrus

let suite =
  [
    Alcotest.test_case "accepts reasonable request" `Quick test_accepts_reasonable_request;
    Alcotest.test_case "rejects impossible hardware" `Quick test_rejects_impossible_hardware;
    Alcotest.test_case "rejects oversized request" `Quick test_rejects_oversized_request;
    Alcotest.test_case "rejects overcommit" `Quick test_rejects_overcommit;
    Alcotest.test_case "modify excludes own claim" `Quick test_modify_excludes_own_claim;
    Alcotest.test_case "delete forgets the request" `Quick test_delete;
    Alcotest.test_case "buffer overhead" `Quick test_buffer_overhead;
    Alcotest.test_case "rejects NaN, negative and infinite rru" `Quick test_rejects_non_finite_rru;
  ]
