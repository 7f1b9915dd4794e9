(* Binlog substrate tests: OpIds, GTID sets (with qcheck properties),
   entries/checksums, and the log store (append/rotate/truncate/purge/
   rewire). *)

let gtid source gno = Binlog.Gtid.make ~source ~gno

let sample_txn_payload ?(source = "srv1") ?(gno = 1) () =
  let g = gtid source gno in
  Binlog.Entry.Transaction
    {
      gtid = g;
      events =
        [
          Binlog.Event.make (Binlog.Event.Gtid_event g);
          Binlog.Event.make
            (Binlog.Event.Write_rows
               { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
          Binlog.Event.make (Binlog.Event.Xid { xid = 1L });
        ];
    }

let entry ~term ~index ?source ?gno () =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term ~index)
    (sample_txn_payload ?source ~gno:(Option.value gno ~default:index) ())

(* ----- Opid ----- *)

let test_opid_ordering () =
  let a = Binlog.Opid.make ~term:2 ~index:5 in
  let b = Binlog.Opid.make ~term:3 ~index:1 in
  let c = Binlog.Opid.make ~term:3 ~index:2 in
  Alcotest.(check bool) "higher term wins" true (Binlog.Opid.compare b a > 0);
  Alcotest.(check bool) "same term by index" true (Binlog.Opid.compare c b > 0);
  Alcotest.(check bool) "up-to-date reflexive" true
    (Binlog.Opid.at_least_as_up_to_date_as a a)

(* ----- Gtid_set ----- *)

let test_gtid_set_add_contains () =
  let s = Binlog.Gtid_set.add Binlog.Gtid_set.empty (gtid "a" 5) in
  Alcotest.(check bool) "contains added" true (Binlog.Gtid_set.contains s (gtid "a" 5));
  Alcotest.(check bool) "not other gno" false (Binlog.Gtid_set.contains s (gtid "a" 4));
  Alcotest.(check bool) "not other source" false (Binlog.Gtid_set.contains s (gtid "b" 5))

let test_gtid_set_interval_merge () =
  let s =
    List.fold_left Binlog.Gtid_set.add Binlog.Gtid_set.empty
      [ gtid "a" 1; gtid "a" 3; gtid "a" 2 ]
  in
  Alcotest.(check string) "merged to one interval" "a:1-3" (Binlog.Gtid_set.to_string s)

let test_gtid_set_remove_splits () =
  let s = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"a" ~lo:1 ~hi:5 in
  let s = Binlog.Gtid_set.remove s (gtid "a" 3) in
  Alcotest.(check string) "split" "a:1-2:4-5" (Binlog.Gtid_set.to_string s);
  Alcotest.(check int) "cardinal" 4 (Binlog.Gtid_set.cardinal s)

let test_gtid_set_union_subset () =
  let a = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"x" ~lo:1 ~hi:3 in
  let b = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"x" ~lo:3 ~hi:6 in
  let u = Binlog.Gtid_set.union a b in
  Alcotest.(check string) "union merged" "x:1-6" (Binlog.Gtid_set.to_string u);
  Alcotest.(check bool) "a subset u" true (Binlog.Gtid_set.subset a u);
  Alcotest.(check bool) "u not subset a" false (Binlog.Gtid_set.subset u a)

let test_gtid_set_max_gno () =
  let s = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"a" ~lo:2 ~hi:9 in
  Alcotest.(check int) "max gno" 9 (Binlog.Gtid_set.max_gno s ~source:"a");
  Alcotest.(check int) "missing source" 0 (Binlog.Gtid_set.max_gno s ~source:"b")

let gtid_list_gen =
  QCheck.(list_of_size Gen.(1 -- 60) (pair (oneofl [ "s1"; "s2"; "s3" ]) (1 -- 30)))

let prop_gtid_set_contains_all_added =
  QCheck.Test.make ~name:"set contains everything added" ~count:300 gtid_list_gen
    (fun pairs ->
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      List.for_all (fun (src, gno) -> Binlog.Gtid_set.contains set (gtid src gno)) pairs)

let prop_gtid_set_cardinal_matches =
  QCheck.Test.make ~name:"cardinal = distinct count" ~count:300 gtid_list_gen
    (fun pairs ->
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      Binlog.Gtid_set.cardinal set = List.length (List.sort_uniq compare pairs))

let prop_gtid_set_remove_then_absent =
  QCheck.Test.make ~name:"remove makes absent, keeps others" ~count:300 gtid_list_gen
    (fun pairs ->
      QCheck.assume (pairs <> []);
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      let src, gno = List.hd pairs in
      let removed = Binlog.Gtid_set.remove set (gtid src gno) in
      (not (Binlog.Gtid_set.contains removed (gtid src gno)))
      && List.for_all
           (fun (s, g) ->
             (s, g) = (src, gno) || Binlog.Gtid_set.contains removed (gtid s g))
           pairs)

let prop_gtid_set_union_commutes =
  QCheck.Test.make ~name:"union commutes" ~count:300 (QCheck.pair gtid_list_gen gtid_list_gen)
    (fun (pa, pb) ->
      let mk pairs =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      let a = mk pa and b = mk pb in
      Binlog.Gtid_set.equal (Binlog.Gtid_set.union a b) (Binlog.Gtid_set.union b a))

(* ----- checksum / entry ----- *)

let test_crc32_known_value () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Binlog.Checksum.string "123456789")

(* Bit-at-a-time CRC-32 over raw bytes: no tables, so it shares nothing
   with the sliced implementation it checks. *)
let bitwise_crc32 bytes =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    bytes;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* The slicing-by-8 [feed_string] against the bitwise reference: every
   length 0-600 (so every tail length), continuing from a state left by
   a random prefix of every length mod 8 (so 8-byte blocks start at
   every offset of the stream). *)
let test_crc32_sliced_matches_bitwise () =
  let rng = Random.State.make [| 600 |] in
  let random_string n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  for len = 0 to 600 do
    let s = random_string len in
    for offset = 0 to 7 do
      let prefix = random_string (offset + (8 * Random.State.int rng 3)) in
      let open Binlog.Checksum in
      let sliced = finalize (feed_string (feed_string init prefix) s) in
      if not (Int32.equal sliced (bitwise_crc32 (prefix ^ s))) then
        Alcotest.failf "len %d after a %d-byte prefix: sliced %lx" len
          (String.length prefix) sliced
    done
  done;
  (* [feed_int] folds the 8 little-endian bytes of the int. *)
  List.iter
    (fun n ->
      let bytes = String.init 8 (fun i -> Char.chr ((n lsr (8 * i)) land 0xFF)) in
      Alcotest.(check int32)
        (Printf.sprintf "feed_int %d" n)
        (bitwise_crc32 ("ab" ^ bytes))
        Binlog.Checksum.(finalize (feed_int (feed_string init "ab") n)))
    [ 0; 1; 255; 65_536; 1 lsl 40; max_int; 123_456_789_012 ]

let test_entry_checksum_roundtrip () =
  let e = entry ~term:1 ~index:1 () in
  Alcotest.(check bool) "verifies" true (Binlog.Entry.verify e)

let test_entry_size_positive () =
  let e = entry ~term:1 ~index:1 () in
  Alcotest.(check bool) "has size" true (Binlog.Entry.size e > 0)

(* ----- corruption detection (the chaos disk-rot model) ----- *)

(* Every Event variant, wrapped in a transaction entry: the CRC stamped
   at make-time must verify clean, and both corruption flavours (payload
   rot under a stale checksum, bit-rot inside the checksum field) must
   make [verify] fail. *)
let all_event_bodies () =
  let g = gtid "srv1" 7 in
  [
    ("format-description", Binlog.Event.Format_description);
    ( "previous-gtids",
      Binlog.Event.Previous_gtids (Binlog.Gtid_set.add Binlog.Gtid_set.empty g) );
    ("gtid-event", Binlog.Event.Gtid_event g);
    ("table-map", Binlog.Event.Table_map { table = "t" });
    ( "write-rows",
      Binlog.Event.Write_rows
        {
          table = "t";
          ops =
            [
              Binlog.Event.Insert { key = "k"; value = "v" };
              Binlog.Event.Update { key = "k"; before = "v"; after = "w" };
              Binlog.Event.Delete { key = "k"; before = "w" };
            ];
        } );
    ("query", Binlog.Event.Query { sql = "UPDATE t SET v = 1" });
    ("xid", Binlog.Event.Xid { xid = 42L });
    ("rotate", Binlog.Event.Rotate { next_file = "binlog.000002" });
  ]

let test_corruption_detected_every_event_variant () =
  List.iter
    (fun (name, body) ->
      let payload =
        Binlog.Entry.Transaction
          {
            gtid = gtid "srv1" 7;
            events = [ Binlog.Event.make body; Binlog.Event.make (Binlog.Event.Xid { xid = 9L }) ];
          }
      in
      let e = Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:1) payload in
      Alcotest.(check bool) (name ^ ": clean verifies") true (Binlog.Entry.verify e);
      Alcotest.(check bool)
        (name ^ ": body rot detected") false
        (Binlog.Entry.verify (Binlog.Entry.corrupt e Binlog.Entry.Body));
      Alcotest.(check bool)
        (name ^ ": header rot detected") false
        (Binlog.Entry.verify (Binlog.Entry.corrupt e Binlog.Entry.Header)))
    (all_event_bodies ())

(* Serialized bytes are memoized at make time: repeated reads return the
   SAME physical string (the hot path never re-marshals), the memo is the
   marshalled payload, and re-stamping the OpId shares it. *)
let test_payload_bytes_memoized () =
  let payload =
    Binlog.Entry.Transaction
      {
        gtid = gtid "srv1" 3;
        events =
          [
            Binlog.Event.make
              (Binlog.Event.Write_rows
                 { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
          ];
      }
  in
  let e = Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:1) payload in
  let b1 = Binlog.Entry.payload_bytes e in
  let b2 = Binlog.Entry.payload_bytes e in
  Alcotest.(check bool) "physically equal across reads" true (b1 == b2);
  Alcotest.(check string) "memo is the marshalled payload" (Marshal.to_string payload []) b1;
  let restamped = Binlog.Entry.with_opid e ~opid:(Binlog.Opid.make ~term:2 ~index:9) in
  Alcotest.(check bool)
    "re-stamping shares the memo" true
    (Binlog.Entry.payload_bytes restamped == b1);
  Alcotest.(check bool) "restamped still verifies" true (Binlog.Entry.verify restamped)

let test_corruption_detected_non_txn_payloads () =
  List.iter
    (fun (name, payload) ->
      let e = Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:1) payload in
      Alcotest.(check bool) (name ^ ": clean verifies") true (Binlog.Entry.verify e);
      List.iter
        (fun flavor ->
          Alcotest.(check bool)
            (name ^ ": rot detected") false
            (Binlog.Entry.verify (Binlog.Entry.corrupt e flavor)))
        [ Binlog.Entry.Header; Binlog.Entry.Body ])
    [
      ("noop", Binlog.Entry.Noop);
      ("config-change", Binlog.Entry.Config_change { description = "add my9"; encoded = "+my9" });
      ("rotate-marker", Binlog.Entry.Rotate_marker { next_file = "binlog.000003" });
    ]

(* CRC-32 guarantee the recovery scan leans on: ANY single-bit flip in
   an entry's stored payload bytes changes the checksum, so corruption
   of one bit can never slip through [verify] on re-read. *)
let prop_single_bit_flip_detected =
  QCheck.Test.make ~name:"single-bit flip in stored payload bytes is always detected"
    ~count:500
    QCheck.(
      triple
        (pair small_nat (string_of_size Gen.(1 -- 20)))
        (string_of_size Gen.(0 -- 40))
        small_nat)
    (fun ((gno, key), value, bitpos) ->
      let payload =
        Binlog.Entry.Transaction
          {
            gtid = gtid "srv1" (gno + 1);
            events =
              [
                Binlog.Event.make (Binlog.Event.Gtid_event (gtid "srv1" (gno + 1)));
                Binlog.Event.make
                  (Binlog.Event.Write_rows
                     { table = "t"; ops = [ Binlog.Event.Insert { key; value } ] });
              ];
          }
      in
      let e = Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:1) payload in
      (* the byte image [Entry.make] checksummed, as stored on disk *)
      let bytes = Bytes.of_string (Marshal.to_string (Binlog.Entry.payload e) []) in
      let bit = bitpos mod (8 * Bytes.length bytes) in
      let i = bit / 8 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
      not
        (Int32.equal
           (Binlog.Checksum.string (Bytes.to_string bytes))
           (Binlog.Entry.checksum e)))

let test_event_sizes () =
  let small = Binlog.Event.make (Binlog.Event.Xid { xid = 1L }) in
  let big =
    Binlog.Event.make
      (Binlog.Event.Write_rows
         {
           table = "t";
           ops = [ Binlog.Event.Insert { key = String.make 100 'k'; value = String.make 300 'v' } ];
         })
  in
  Alcotest.(check bool) "rows event bigger than xid" true
    (Binlog.Event.size big > Binlog.Event.size small)

(* ----- log store ----- *)

let test_log_append_and_read () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Alcotest.(check int) "last index" 10 (Binlog.Opid.index (Binlog.Log_store.last_opid log));
  (match Binlog.Log_store.entry_at log 5 with
  | Some e -> Alcotest.(check int) "entry index" 5 (Binlog.Entry.index e)
  | None -> Alcotest.fail "missing entry");
  Alcotest.(check int) "entries_from" 3
    (List.length (Binlog.Log_store.entries_from log ~from_index:8 ~max_count:100))

(* Recovery-time corruption scan: a CRC-failing entry mid-log truncates
   everything from it onward (the suffix is untrustworthy) and the
   report carries the pre-truncation tail (the vote-floor fence). *)
let test_log_corruption_scan_truncates_suffix () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Alcotest.(check (option pass)) "clean log scans clean" None
    (Binlog.Log_store.scan_for_corruption log);
  Alcotest.(check bool) "corrupt injects" true
    (Binlog.Log_store.corrupt_entry log ~index:6 ~flavor:Binlog.Entry.Body);
  match Binlog.Log_store.scan_for_corruption log with
  | None -> Alcotest.fail "scan missed the corrupt entry"
  | Some r ->
    Alcotest.(check int) "first corrupt index" 6 r.Binlog.Log_store.cr_first_corrupt;
    Alcotest.(check int) "suffix dropped" 5 (List.length r.Binlog.Log_store.cr_dropped);
    Alcotest.(check int) "log truncated to 5" 5 (Binlog.Log_store.last_index log);
    Alcotest.(check int) "pre-truncation tail preserved" 10
      (Binlog.Opid.index r.Binlog.Log_store.cr_pre_truncation_tail);
    Alcotest.(check bool) "detected counted" true (r.Binlog.Log_store.cr_detected >= 1)

let test_log_append_gap_rejected () =
  let log = Binlog.Log_store.create () in
  Binlog.Log_store.append log (entry ~term:1 ~index:1 ());
  Alcotest.check_raises "gap" (Invalid_argument "Log_store.append: index 3 but log ends at 1")
    (fun () -> Binlog.Log_store.append log (entry ~term:1 ~index:3 ()))

let test_log_truncate () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let removed = Binlog.Log_store.truncate_from log ~from_index:6 in
  Alcotest.(check int) "removed" 5 (List.length removed);
  Alcotest.(check int) "new last" 5 (Binlog.Opid.index (Binlog.Log_store.last_opid log));
  (* GTIDs of truncated transactions are gone from the log's set (§3.3) *)
  Alcotest.(check bool) "gtid removed" false
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "srv1" 7));
  Alcotest.(check bool) "kept gtid present" true
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "srv1" 3));
  (* can append again after truncation *)
  Binlog.Log_store.append log (entry ~term:2 ~index:6 ~gno:100 ());
  Alcotest.(check int) "append after truncate" 6
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

let test_log_rotation_and_file_list () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 5 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Binlog.Log_store.rotate log;
  for i = 6 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let files = Binlog.Log_store.file_list log in
  Alcotest.(check int) "two files" 2 (List.length files);
  (match files with
  | [ (_, _, n1); (_, _, n2) ] ->
    Alcotest.(check int) "first file entries" 5 n1;
    Alcotest.(check int) "second file entries" 3 n2
  | _ -> Alcotest.fail "unexpected files")

let test_log_purge () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 5 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Binlog.Log_store.rotate log;
  for i = 6 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let second_file =
    match Binlog.Log_store.file_names log with [ _; f2 ] -> f2 | _ -> Alcotest.fail "files"
  in
  Binlog.Log_store.purge_to log ~file:second_file;
  Alcotest.(check int) "one file left" 1 (List.length (Binlog.Log_store.file_names log));
  Alcotest.(check bool) "purged entry gone" true (Binlog.Log_store.entry_at log 3 = None);
  Alcotest.(check bool) "kept entry present" true (Binlog.Log_store.entry_at log 7 <> None);
  Alcotest.(check int) "last index unchanged" 8
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

let test_log_switch_mode_rewires_names () =
  let log = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay () in
  Binlog.Log_store.append log (entry ~term:1 ~index:1 ());
  Binlog.Log_store.switch_mode log Binlog.Log_store.Binlog;
  Binlog.Log_store.append log (entry ~term:1 ~index:2 ());
  let names = Binlog.Log_store.file_names log in
  Alcotest.(check bool) "relay file kept" true
    (List.exists (fun n -> String.length n >= 8 && String.sub n 0 8 = "relaylog") names);
  Alcotest.(check bool) "new binlog file" true
    (List.exists (fun n -> String.length n >= 6 && String.sub n 0 6 = "binlog") names);
  (* entries survive the rewiring *)
  Alcotest.(check bool) "entries intact" true (Binlog.Log_store.entry_at log 1 <> None)

(* ----- InstallSnapshot rebase (log compaction §A.1) ----- *)

let test_install_snapshot_retain_tail () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  (* boundary entry present with matching term: purge-in-place, keep tail *)
  let dropped =
    Binlog.Log_store.install_snapshot log
      ~last:(Binlog.Opid.make ~term:1 ~index:5)
      ~gtids:(Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap" ~lo:1 ~hi:5)
  in
  Alcotest.(check int) "no conflicting tail" 0 (List.length dropped);
  Alcotest.(check int) "purged below" 6 (Binlog.Log_store.purged_below log);
  Alcotest.(check int) "boundary opid" 5
    (Binlog.Opid.index (Binlog.Log_store.purge_boundary_opid log));
  Alcotest.(check (option int)) "boundary term answerable" (Some 1)
    (Binlog.Log_store.term_at log 5);
  Alcotest.(check bool) "prefix gone" true (Binlog.Log_store.entry_at log 3 = None);
  Alcotest.(check bool) "tail retained" true (Binlog.Log_store.entry_at log 7 <> None);
  Alcotest.(check int) "tail index unchanged" 8 (Binlog.Log_store.last_index log);
  Alcotest.(check bool) "snapshot gtids merged" true
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "snap" 3))

let test_install_snapshot_discard_rebase () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  (* boundary unknown locally: the whole log conflicts and is dropped *)
  let gtids = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap" ~lo:1 ~hi:50 in
  let dropped =
    Binlog.Log_store.install_snapshot log ~last:(Binlog.Opid.make ~term:3 ~index:50) ~gtids
  in
  Alcotest.(check int) "whole log dropped" 8 (List.length dropped);
  Alcotest.(check int) "rebased tail" 50 (Binlog.Log_store.last_index log);
  Alcotest.(check int) "purged below" 51 (Binlog.Log_store.purged_below log);
  Alcotest.(check (option int)) "boundary term answerable" (Some 3)
    (Binlog.Log_store.term_at log 50);
  Alcotest.(check string) "gtid set replaced" (Binlog.Gtid_set.to_string gtids)
    (Binlog.Gtid_set.to_string (Binlog.Log_store.gtid_set log));
  (* tailing resumes at the boundary: the next append must be b+1 *)
  Binlog.Log_store.append log (entry ~term:3 ~index:51 ~gno:51 ());
  Alcotest.(check int) "append after rebase" 51
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

(* Interleave purge_to / truncate_from / rotate / install_snapshot and
   check the compaction bookkeeping never drifts: [purged_below] is
   always [purge_boundary_opid + 1], the boundary term stays answerable,
   purged slots read as absent, and the tail never retreats into the
   purged range. *)
let prop_compaction_invariants =
  let op_gen = QCheck.(list_of_size Gen.(1 -- 40) (pair (0 -- 4) (0 -- 10))) in
  QCheck.Test.make ~name:"compaction invariants under interleaved ops" ~count:300 op_gen
    (fun ops ->
      let log = Binlog.Log_store.create () in
      let next_gno = ref 0 in
      let max_term = ref 1 in
      let append term =
        incr next_gno;
        Binlog.Log_store.append log
          (entry ~term ~index:(Binlog.Log_store.last_index log + 1) ~gno:!next_gno ())
      in
      append 1;
      let check_invariants () =
        let pb = Binlog.Log_store.purged_below log in
        let boundary = Binlog.Log_store.purge_boundary_opid log in
        pb >= 1
        && Binlog.Opid.index boundary = pb - 1
        && Binlog.Log_store.last_index log >= pb - 1
        && (pb = 1
           || Binlog.Log_store.term_at log (pb - 1) = Some (Binlog.Opid.term boundary))
        && Binlog.Log_store.entry_at log (pb - 1) = None
        && Binlog.Log_store.entry_at log (pb / 2) = None
      in
      List.for_all
        (fun (kind, arg) ->
          let last = Binlog.Log_store.last_index log in
          let pb = Binlog.Log_store.purged_below log in
          (match kind with
          | 0 -> append !max_term
          | 1 -> Binlog.Log_store.rotate log
          | 2 ->
            (* purge to a file picked from the current list: everything
               strictly older is dropped *)
            let files = Binlog.Log_store.file_names log in
            let file = List.nth files (arg mod List.length files) in
            Binlog.Log_store.purge_to log ~file
          | 3 ->
            (* truncate somewhere in the un-purged range *)
            let from_index = pb + (arg mod (last - pb + 2)) in
            ignore (Binlog.Log_store.truncate_from log ~from_index)
          | _ ->
            (* install: half the time at a held index with its real term
               (retain), otherwise past the tail at a new term (discard) *)
            if arg mod 2 = 0 && last >= pb then begin
              let b = pb + (arg mod (last - pb + 1)) in
              match Binlog.Log_store.term_at log b with
              | Some term ->
                ignore
                  (Binlog.Log_store.install_snapshot log
                     ~last:(Binlog.Opid.make ~term ~index:b)
                     ~gtids:Binlog.Gtid_set.empty)
              | None -> ()
            end
            else begin
              let b = last + 1 + (arg mod 5) in
              let term = !max_term + 1 in
              max_term := term;
              ignore
                (Binlog.Log_store.install_snapshot log
                   ~last:(Binlog.Opid.make ~term ~index:b)
                   ~gtids:
                     (Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap"
                        ~lo:1 ~hi:b))
            end);
          check_invariants ())
        ops
      &&
      (* the store still extends: one more append at the tail goes in *)
      let tail = Binlog.Log_store.last_index log in
      max_term := !max_term + 1;
      append !max_term;
      Binlog.Log_store.last_index log = tail + 1)

let test_log_term_regression_rejected () =
  let log = Binlog.Log_store.create () in
  Binlog.Log_store.append log (entry ~term:3 ~index:1 ());
  Alcotest.check_raises "term regression"
    (Invalid_argument "Log_store.append: term regression") (fun () ->
      Binlog.Log_store.append log (entry ~term:2 ~index:2 ()))

let suites =
  [
    ("binlog.opid", [ Alcotest.test_case "ordering" `Quick test_opid_ordering ]);
    ( "binlog.gtid_set",
      [
        Alcotest.test_case "add/contains" `Quick test_gtid_set_add_contains;
        Alcotest.test_case "interval merge" `Quick test_gtid_set_interval_merge;
        Alcotest.test_case "remove splits" `Quick test_gtid_set_remove_splits;
        Alcotest.test_case "union/subset" `Quick test_gtid_set_union_subset;
        Alcotest.test_case "max gno" `Quick test_gtid_set_max_gno;
        QCheck_alcotest.to_alcotest prop_gtid_set_contains_all_added;
        QCheck_alcotest.to_alcotest prop_gtid_set_cardinal_matches;
        QCheck_alcotest.to_alcotest prop_gtid_set_remove_then_absent;
        QCheck_alcotest.to_alcotest prop_gtid_set_union_commutes;
      ] );
    ( "binlog.entry",
      [
        Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_value;
        Alcotest.test_case "sliced crc32 = bitwise reference" `Quick
          test_crc32_sliced_matches_bitwise;
        Alcotest.test_case "checksum roundtrip" `Quick test_entry_checksum_roundtrip;
        Alcotest.test_case "entry size" `Quick test_entry_size_positive;
        Alcotest.test_case "event sizes" `Quick test_event_sizes;
        Alcotest.test_case "payload bytes memoized" `Quick test_payload_bytes_memoized;
        Alcotest.test_case "corruption detected per event variant" `Quick
          test_corruption_detected_every_event_variant;
        Alcotest.test_case "corruption detected per payload kind" `Quick
          test_corruption_detected_non_txn_payloads;
        QCheck_alcotest.to_alcotest prop_single_bit_flip_detected;
      ] );
    ( "binlog.log_store",
      [
        Alcotest.test_case "append and read" `Quick test_log_append_and_read;
        Alcotest.test_case "corruption scan truncates suffix" `Quick
          test_log_corruption_scan_truncates_suffix;
        Alcotest.test_case "gap rejected" `Quick test_log_append_gap_rejected;
        Alcotest.test_case "truncate" `Quick test_log_truncate;
        Alcotest.test_case "rotation and SHOW BINARY LOGS" `Quick test_log_rotation_and_file_list;
        Alcotest.test_case "purge" `Quick test_log_purge;
        Alcotest.test_case "binlog/relay rewiring" `Quick test_log_switch_mode_rewires_names;
        Alcotest.test_case "term regression rejected" `Quick test_log_term_regression_rejected;
        Alcotest.test_case "install snapshot retains tail" `Quick
          test_install_snapshot_retain_tail;
        Alcotest.test_case "install snapshot discard-rebases" `Quick
          test_install_snapshot_discard_rebase;
        QCheck_alcotest.to_alcotest prop_compaction_invariants;
      ] );
  ]
