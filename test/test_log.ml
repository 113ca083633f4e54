(* Tests for the log library: bit-stream packing, the tornbit RAWL
   (append/flush/truncate/recovery, torn-write detection, wraparound)
   and the commit-record baseline log. *)

let with_tmpdir f =
  let dir = Filename.temp_file "mnemolog" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* A full persistent-memory stack in [dir]; returns (machine, view). *)
let stack ?(nframes = 256) ?(seed = 5) dir =
  let m = Scm.Env.make_machine ~seed ~nframes () in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m backing in
  (m, Region.Pmem.default_view t)

(* Simulate process death + reboot on the same device: volatile state is
   wiped by the crash; rebuild the machine wrapper and reopen. *)
let reboot (m : Scm.Env.machine) dir =
  let m' = Scm.Env.machine_of_device m.dev in
  let backing = Region.Backing_store.open_dir dir in
  let t = Region.Pmem.open_instance m' backing in
  (m', Region.Pmem.default_view t)

let i64_array = Alcotest.(array int64)

let record_list = Alcotest.(list (array int64))

(* ------------------------------------------------------------------ *)
(* Bitstream *)

let test_stored_words_for () =
  Alcotest.(check int) "1 word" 2 (Pmlog.Bitstream.stored_words_for 1);
  Alcotest.(check int) "63 words" 64 (Pmlog.Bitstream.stored_words_for 63);
  Alcotest.(check int) "64 words" 66 (Pmlog.Bitstream.stored_words_for 64)

let pack_unpack words =
  let chunks = ref [] in
  let packer =
    Pmlog.Bitstream.Packer.create ~emit:(fun c -> chunks := c :: !chunks)
  in
  Array.iter (Pmlog.Bitstream.Packer.push packer) words;
  Pmlog.Bitstream.Packer.flush packer;
  let chunks = List.rev !chunks in
  List.iter
    (fun c ->
      Alcotest.(check bool) "bit 63 clear in emitted chunk" false
        (Scm.Word.bit c 63))
    chunks;
  let unp = Pmlog.Bitstream.Unpacker.create () in
  let out = ref [] in
  List.iter
    (fun c ->
      Pmlog.Bitstream.Unpacker.feed unp c;
      let rec drain () =
        match Pmlog.Bitstream.Unpacker.take unp with
        | Some w ->
            out := w :: !out;
            drain ()
        | None -> ()
      in
      drain ())
    chunks;
  (List.length chunks, Array.of_list (List.rev !out))

let test_bitstream_roundtrip_small () =
  let words = [| 1L; -1L; 0x0123456789abcdefL; 0L; Int64.min_int |] in
  let nchunks, out = pack_unpack words in
  Alcotest.(check int) "chunk count" (Pmlog.Bitstream.stored_words_for 5)
    nchunks;
  Alcotest.check i64_array "roundtrip"
    words (Array.sub out 0 5)

let prop_bitstream_roundtrip =
  QCheck.Test.make ~name:"bitstream pack/unpack roundtrip" ~count:200
    QCheck.(array_of_size Gen.(1 -- 200) int64)
    (fun words ->
      let nchunks, out = pack_unpack words in
      nchunks = Pmlog.Bitstream.stored_words_for (Array.length words)
      && Array.length out >= Array.length words
      && Array.for_all2 ( = ) words
           (Array.sub out 0 (Array.length words)))

(* ------------------------------------------------------------------ *)
(* RAWL *)

let make_log v ~cap_words =
  let base = Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words) in
  (base, Pmlog.Rawl.create v ~base ~cap_words)

let test_rawl_append_and_recover () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:256 in
      let r1 = [| 1L; 2L; 3L |] and r2 = [| -1L |] and r3 = Array.make 20 7L in
      List.iter
        (fun r ->
          match Pmlog.Rawl.append log r with
          | Pmlog.Rawl.Appended _ -> ()
          | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full")
        [ r1; r2; r3 ];
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "all records recovered" [ r1; r2; r3 ]
        records)

let test_rawl_unflushed_append_lost () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      (match Pmlog.Rawl.append log [| 5L; 6L |] with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "Full");
      Pmlog.Rawl.flush log;
      (match Pmlog.Rawl.append log [| 9L |] with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "Full");
      (* no flush: second record is still in the WC buffers *)
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "only the flushed record" [ [| 5L; 6L |] ]
        records)

let test_rawl_torn_append_detected () =
  (* Crash with a random subset of the pending streaming writes applied:
     recovery must never surface a corrupted record — each recovered
     record matches what was appended, and they form a prefix. *)
  let failures = ref 0 in
  for seed = 0 to 49 do
    with_tmpdir (fun dir ->
        let m, v = stack ~seed dir in
        let base, log = make_log v ~cap_words:512 in
        let appended =
          List.init 5 (fun i -> Array.init (3 + i) (fun j ->
              Int64.of_int ((100 * i) + j)))
        in
        List.iteri
          (fun i r ->
            (match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended _ -> ()
            | Pmlog.Rawl.Full -> Alcotest.fail "Full");
            (* flush the first three; leave the last two in flight *)
            if i = 2 then Pmlog.Rawl.flush log)
          appended;
        Scm.Crash.inject
          ~policy:
            { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
          m;
        let _, v' = reboot m dir in
        let _, records = Pmlog.Rawl.attach v' ~base in
        if List.length records < 3 then incr failures;
        (* recovered records must be an exact prefix of what was appended *)
        List.iteri
          (fun i r ->
            Alcotest.check i64_array
              (Printf.sprintf "seed %d record %d intact" seed i)
              (List.nth appended i) r)
          records)
  done;
  Alcotest.(check int) "flushed records always recovered" 0 !failures

let test_rawl_bit_flip_injection () =
  (* The paper's reliability test: inject bit flips into the log before
     a crash; recovery must stop at the corrupted word. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      ignore (Pmlog.Rawl.append log [| 3L; 4L |]);
      Pmlog.Rawl.flush log;
      (* Flip the torn bit of the second record's first stored word.
         Record 1 spans stored_words_for(3) = 4 words; buffer starts at
         base + 64. *)
      let slot = base + 64 + (8 * Pmlog.Bitstream.stored_words_for 3) in
      let w = Region.Pmem.load v slot in
      Region.Pmem.wtstore v slot (Scm.Word.set_bit w 63 (not (Scm.Word.bit w 63)));
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "scan stops at the flipped bit"
        [ [| 1L; 2L |] ]
        records)

let test_rawl_wraparound_many_passes () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      (* Append/truncate enough to wrap the buffer several times. *)
      for round = 1 to 40 do
        (match Pmlog.Rawl.append log (Array.make 10 (Int64.of_int round)) with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
        Pmlog.Rawl.flush log;
        if round mod 2 = 1 then Pmlog.Rawl.truncate_all log
      done;
      (* One final flushed record after the last truncation. *)
      ignore (Pmlog.Rawl.append log [| 4242L |]);
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "post-wrap recovery"
        [ Array.make 10 40L; [| 4242L |] ]
        records)

let test_rawl_full_and_space_accounting () =
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let _, log = make_log v ~cap_words:16 in
      Alcotest.(check int) "empty" 0 (Pmlog.Rawl.used_words log);
      Alcotest.(check int) "free" 15 (Pmlog.Rawl.free_words log);
      (match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Appended span ->
          Alcotest.(check int) "span" (Pmlog.Bitstream.stored_words_for 9) span
      | Pmlog.Rawl.Full -> Alcotest.fail "should fit");
      (match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Full -> ()
      | Pmlog.Rawl.Appended _ -> Alcotest.fail "should be Full");
      Pmlog.Rawl.truncate_all log;
      Alcotest.(check int) "free after truncate" 15
        (Pmlog.Rawl.free_words log);
      match Pmlog.Rawl.append log (Array.make 8 1L) with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "fits again")

let test_rawl_advance_head_partial () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:256 in
      let spans =
        List.map
          (fun r ->
            match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended s -> s
            | Pmlog.Rawl.Full -> Alcotest.fail "Full")
          [ [| 1L |]; [| 2L |]; [| 3L |] ]
      in
      Pmlog.Rawl.flush log;
      (* Consume just the first record. *)
      Pmlog.Rawl.advance_head log ~words:(List.hd spans);
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "first record consumed"
        [ [| 2L |]; [| 3L |] ]
        records)

let test_rawl_double_crash_after_recovery () =
  (* A partial append discarded at recovery must not resurface after a
     second crash (the stale-suffix erasure). *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:128 in
      ignore (Pmlog.Rawl.append log [| 10L; 11L |]);
      Pmlog.Rawl.flush log;
      ignore (Pmlog.Rawl.append log [| 20L; 21L; 22L; 23L |]);
      (* crash with only part of the second append applied *)
      Scm.Crash.inject
        ~policy:
          { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
        m;
      let m2, v2 = reboot m dir in
      let log2, records1 = Pmlog.Rawl.attach v2 ~base in
      Alcotest.(check bool) "at most the flushed record" true
        (List.length records1 <= 1);
      (* Continue appending after recovery, then crash again cleanly. *)
      ignore (Pmlog.Rawl.append log2 [| 30L |]);
      Pmlog.Rawl.flush log2;
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m2;
      let _, v3 = reboot m2 dir in
      let _, records2 = Pmlog.Rawl.attach v3 ~base in
      Alcotest.check record_list "old records + the new one, no garbage"
        (records1 @ [ [| 30L |] ])
        records2)

let prop_rawl_recovery_prefix =
  (* For random record batches, random flush points and adversarial
     crashes: recovery yields an uncorrupted prefix (at least through
     the last flush). *)
  QCheck.Test.make ~name:"rawl recovery yields intact flushed prefix"
    ~count:60
    QCheck.(
      pair (int_bound 1000)
        (list_of_size Gen.(1 -- 8) (array_of_size Gen.(1 -- 12) int64)))
    (fun (seed, batch) ->
      QCheck.assume (batch <> []);
      with_tmpdir (fun dir ->
          let m, v = stack ~seed dir in
          let base, log = make_log v ~cap_words:1024 in
          let flush_at = seed mod List.length batch in
          List.iteri
            (fun i r ->
              (match Pmlog.Rawl.append log r with
              | Pmlog.Rawl.Appended _ -> ()
              | Pmlog.Rawl.Full -> QCheck.assume_fail ());
              if i = flush_at then Pmlog.Rawl.flush log)
            batch;
          Scm.Crash.inject m;
          let _, v' = reboot m dir in
          let _, records = Pmlog.Rawl.attach v' ~base in
          List.length records >= flush_at + 1
          && List.for_all2 ( = )
               records
               (List.filteri (fun i _ -> i < List.length records) batch)))

let test_rawl_tornbit_rotation () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let cap_words = 32 in
      let base = Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words) in
      let log = Pmlog.Rawl.create ~rotate_torn_bit:true v ~base ~cap_words in
      Alcotest.(check int) "starts at bit 63" 63
        (Pmlog.Rawl.torn_bit_position log);
      (* push enough passes through the buffer to trigger a rotation:
         each round writes ~14 of the 31 usable words *)
      let rounds = 4 * Pmlog.Rawl.rotate_period in
      for round = 1 to rounds do
        (match Pmlog.Rawl.append log (Array.make 12 (Int64.of_int round)) with
        | Pmlog.Rawl.Appended _ -> ()
        | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
        Pmlog.Rawl.flush log;
        Pmlog.Rawl.truncate_all log
      done;
      Alcotest.(check bool) "torn bit moved" true
        (Pmlog.Rawl.torn_bit_position log <> 63);
      (* a record written under the rotated position still recovers,
         including across a crash and with arbitrary payload bits in the
         old torn-bit column *)
      let payload = Array.init 10 (fun i -> Int64.lognot (Int64.of_int i)) in
      ignore (Pmlog.Rawl.append log payload);
      Pmlog.Rawl.flush log;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let log', records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "recovered under rotated torn bit"
        [ payload ] records;
      Alcotest.(check int) "position recovered from the head word"
        (Pmlog.Rawl.torn_bit_position log)
        (Pmlog.Rawl.torn_bit_position log'))

let prop_rawl_rotation_roundtrip =
  QCheck.Test.make ~name:"rotating rawl round-trips arbitrary payloads"
    ~count:40
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(1 -- 5)
                                     (array_of_size Gen.(1 -- 6) int64)))
    (fun (seed, batch) ->
      QCheck.assume (batch <> []);
      with_tmpdir (fun dir ->
          let _, v = stack ~seed dir in
          let cap_words = 64 in
          let base =
            Region.Pmem.pmap v (Pmlog.Rawl.region_bytes_for ~cap_words)
          in
          let log =
            Pmlog.Rawl.create ~rotate_torn_bit:true v ~base ~cap_words
          in
          (* churn to move the torn bit *)
          for _ = 1 to (seed mod 3) * Pmlog.Rawl.rotate_period * 4 do
            ignore (Pmlog.Rawl.append log [| 1L; 2L; 3L |]);
            Pmlog.Rawl.flush log;
            Pmlog.Rawl.truncate_all log
          done;
          List.iter
            (fun r ->
              match Pmlog.Rawl.append log r with
              | Pmlog.Rawl.Appended _ -> ()
              | Pmlog.Rawl.Full -> QCheck.assume_fail ())
            batch;
          Pmlog.Rawl.flush log;
          let _, records = Pmlog.Rawl.attach v ~base in
          records = batch))

(* ------------------------------------------------------------------ *)
(* Adversarial recovery: hand-planted device states                    *)

(* The 63-bit chunks the packer would emit for [words] — what a record
   of this payload looks like on the device, minus torn bits. *)
let chunks_of words =
  let out = ref [] in
  let p = Pmlog.Bitstream.Packer.create ~emit:(fun c -> out := c :: !out) in
  Array.iter (Pmlog.Bitstream.Packer.push p) words;
  Pmlog.Bitstream.Packer.flush p;
  List.rev !out

(* Hand-write stored words carrying torn bit 1 at position 63 (the
   first pass over a fresh log) at buffer position [pos] — simulating
   the subset of a crashed append's streaming stores that landed. *)
let plant v ~base ~pos chunks =
  List.iteri
    (fun i c ->
      Region.Pmem.wtstore v
        (base + 64 + (8 * (pos + i)))
        (Int64.logor c (Int64.shift_left 1L 63)))
    chunks;
  Region.Pmem.fence v

let test_rawl_max_record_words_boundary () =
  (* append admission, the recovery length-plausibility bound and
     max_record_words must all be the same function of the capacity *)
  for cap_words = 4 to 200 do
    let n = Pmlog.Rawl.max_record_words_for ~cap_words in
    Alcotest.(check bool)
      (Printf.sprintf "cap %d: the max record fits" cap_words)
      true
      (Pmlog.Bitstream.stored_words_for (n + 1) <= cap_words - 1);
    Alcotest.(check bool)
      (Printf.sprintf "cap %d: one more word does not" cap_words)
      true
      (Pmlog.Bitstream.stored_words_for (n + 2) > cap_words - 1)
  done;
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:16 in
      let nmax = Pmlog.Rawl.max_record_words log in
      Alcotest.(check int) "instance bound matches the static one" nmax
        (Pmlog.Rawl.max_record_words_for ~cap_words:16);
      (match Pmlog.Rawl.append log (Array.make (nmax + 1) 9L) with
      | Pmlog.Rawl.Full -> ()
      | Pmlog.Rawl.Appended _ ->
          Alcotest.fail "a record past the bound must be Full");
      let r = Array.init nmax (fun i -> Int64.of_int (i + 1)) in
      (match Pmlog.Rawl.append log r with
      | Pmlog.Rawl.Appended _ -> ()
      | Pmlog.Rawl.Full -> Alcotest.fail "a max-size record must fit");
      Pmlog.Rawl.flush log;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Rawl.attach v' ~base in
      Alcotest.check record_list "a max-size record recovers" [ r ] records)

let test_rawl_implausible_length_rejected () =
  (* A stale word can decode to any length.  Recovery must reject every
     length no append could have produced — in particular the first
     value past max_record_words, which an unreconciled (laxer) scan
     bound would admit. *)
  List.iter
    (fun bogus ->
      with_tmpdir (fun dir ->
          let m, v = stack dir in
          let base, log = make_log v ~cap_words:128 in
          ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
          Pmlog.Rawl.flush log;
          (* plant the bogus length word right at the tail (the first
             record spans stored positions 0..3) *)
          plant v ~base ~pos:4 (chunks_of [| Int64.of_int bogus |]);
          Scm.Crash.inject m;
          let _, v' = reboot m dir in
          let _, records = Pmlog.Rawl.attach v' ~base in
          Alcotest.check record_list
            (Printf.sprintf "length %d rejected, no phantom record" bogus)
            [ [| 1L; 2L |] ]
            records))
    [ 0;
      Pmlog.Rawl.max_record_words_for ~cap_words:128 + 1;
      128;
      max_int lsr 8 ]

let test_rawl_stale_word_beyond_gap_erased () =
  (* Crash-landed subsets are arbitrary: a perfectly plausible stale
     record image can sit beyond a gap of never-written words.  The
     recovery erase must sweep the whole free region — an erase that
     stops at the first missing word leaves the stale image in place,
     and once later appends fill the gap the next recovery scan runs
     straight into it and surfaces a phantom record. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      (* spans positions 0..3 *)
      Pmlog.Rawl.flush log;
      (* a crashed append whose words at positions 4..6 never landed
         but whose tail did: a complete record image at positions 7..9 *)
      plant v ~base ~pos:7 (chunks_of [| 1L; 0xbadL |]);
      Scm.Crash.inject m;
      let m2, v2 = reboot m dir in
      let log2, recs1 = Pmlog.Rawl.attach v2 ~base in
      Alcotest.check record_list "scan stops at the gap" [ [| 1L; 2L |] ]
        recs1;
      (* a new append fills the gap exactly (span 3: positions 4..6) *)
      ignore (Pmlog.Rawl.append log2 [| 7L |]);
      Pmlog.Rawl.flush log2;
      Scm.Crash.inject
        ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
        m2;
      let _, v3 = reboot m2 dir in
      let _, recs2 = Pmlog.Rawl.attach v3 ~base in
      Alcotest.check record_list "the planted image must not resurface"
        [ [| 1L; 2L |]; [| 7L |] ]
        recs2)

let test_rawl_partial_trailing_wrap () =
  (* A torn append spanning the wrap point, for many crash seeds: the
     recovery must surface either just the flushed prefix or the whole
     record (if every store landed), never garbage — and the recovered
     log must stay usable through another append/crash/recover cycle. *)
  let torn = Array.make 8 6L in
  for seed = 0 to 29 do
    with_tmpdir (fun dir ->
        let m, v = stack ~seed dir in
        let base, log = make_log v ~cap_words:32 in
        (* two flushed+consumed records advance the tail to position 24 *)
        List.iter
          (fun r ->
            (match Pmlog.Rawl.append log r with
            | Pmlog.Rawl.Appended _ -> ()
            | Pmlog.Rawl.Full -> Alcotest.fail "unexpected Full");
            Pmlog.Rawl.flush log;
            Pmlog.Rawl.truncate_all log)
          [ Array.make 10 1L; Array.make 10 2L ];
        ignore (Pmlog.Rawl.append log [| 5L |]);
        (* positions 24..26 *)
        Pmlog.Rawl.flush log;
        (* span 10: positions 27..31, then 0..4 on the next pass *)
        ignore (Pmlog.Rawl.append log torn);
        Scm.Crash.inject
          ~policy:
            { cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_random_subset }
          m;
        let m2, v2 = reboot m dir in
        let log2, recs = Pmlog.Rawl.attach v2 ~base in
        (match recs with
        | [ [| 5L |] ] -> ()
        | [ [| 5L |]; r ] ->
            Alcotest.check i64_array
              (Printf.sprintf "seed %d: complete wrap record" seed)
              torn r
        | _ ->
            Alcotest.failf "seed %d: unexpected recovery (%d records)" seed
              (List.length recs));
        ignore (Pmlog.Rawl.append log2 [| 9L |]);
        Pmlog.Rawl.flush log2;
        Scm.Crash.inject
          ~policy:{ cache = Scm.Crash.Drop_dirty; wc = Scm.Crash.Wc_drop }
          m2;
        let _, v3 = reboot m2 dir in
        let _, recs2 = Pmlog.Rawl.attach v3 ~base in
        Alcotest.check record_list
          (Printf.sprintf "seed %d: second recovery consistent" seed)
          (recs @ [ [| 9L |] ])
          recs2)
  done

let test_rawl_recovery_crash_idempotent () =
  (* Crash the recovery itself — including mid-erase — at every op
     index, then recover again: the second recovery must converge to
     the same records as an uninterrupted one, from every intermediate
     state the erase sweep can be left in. *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      Pmlog.Rawl.flush log;
      (* stale debris for the erase to clean: a lone mid-append word and
         a full record image beyond the gap *)
      plant v ~base ~pos:5 [ List.nth (chunks_of [| 3L; 4L; 5L |]) 1 ];
      plant v ~base ~pos:7 (chunks_of [| 1L; 0xbadL |]);
      Scm.Crash.inject m;
      let dev0 = Scm.Scm_device.copy m.Scm.Env.dev in
      let try_recover dev ~crash_point =
        let m' = Scm.Env.machine_of_device ?crash_point dev in
        let backing = Region.Backing_store.open_dir dir in
        match
          let t = Region.Pmem.open_instance m' backing in
          Pmlog.Rawl.attach (Region.Pmem.default_view t) ~base
        with
        | _, records -> Ok records
        | exception Scm.Crashpoint.Simulated_crash _ ->
            Scm.Crash.inject m';
            Error ()
      in
      let baseline =
        match try_recover (Scm.Scm_device.copy dev0) ~crash_point:None with
        | Ok records -> records
        | Error () -> Alcotest.fail "disarmed recovery crashed"
      in
      Alcotest.check record_list "baseline recovery" [ [| 1L; 2L |] ] baseline;
      let explored = ref 0 in
      let k = ref 1 and finished = ref false in
      while not !finished do
        let dev = Scm.Scm_device.copy dev0 in
        let cp = Scm.Crashpoint.create () in
        Scm.Crashpoint.arm cp ~at:!k;
        (match try_recover dev ~crash_point:(Some cp) with
        | Ok records ->
            (* op !k lies beyond the recovery: the sweep is exhausted *)
            Alcotest.check record_list "uncrashed tail run" baseline records;
            finished := true
        | Error () -> (
            incr explored;
            match try_recover dev ~crash_point:None with
            | Ok records ->
                Alcotest.check record_list
                  (Printf.sprintf "second recovery after a crash at op %d" !k)
                  baseline records
            | Error () -> Alcotest.fail "disarmed recovery crashed"));
        incr k
      done;
      Alcotest.(check bool) "crash points were explored" true (!explored > 0))

(* ------------------------------------------------------------------ *)
(* The erase sweep against a per-word reference                        *)

(* Reference recovery: the scan, then the erase sweep as one
   non-temporal load per free word.  {!Pmlog.Rawl.attach}, which reads
   the free region in spans, must match it in device bytes,
   persistence-op count and simulated clock. *)
let reference_attach v ~base =
  let log, records = Pmlog.Rawl.scan v ~base in
  let cap = Pmlog.Rawl.capacity log in
  let slot pos = base + Pmlog.Rawl.header_bytes + (8 * pos) in
  let off, parity, tpos = Pmlog.Rawl.tail log in
  let pos = ref off and parity = ref parity and erased = ref false in
  for _ = 1 to Pmlog.Rawl.free_words log do
    let w = Region.Pmem.load_nt v (slot !pos) in
    let _, torn = Pmlog.Rawl.extract_torn w tpos in
    if torn = (!parity = 1) then begin
      let filler = if !parity = 1 then 0L else Int64.shift_left 1L tpos in
      Region.Pmem.wtstore v (slot !pos) filler;
      erased := true
    end;
    incr pos;
    if !pos = cap then begin
      pos := 0;
      parity := 1 - !parity
    end
  done;
  if !erased then Region.Pmem.fence v;
  (log, records)

type sweep_outcome = {
  image : Bytes.t;  (* the whole device after the run *)
  ops : int;  (* Crashpoint.count *)
  clock : int;  (* simulated ns charged to the view *)
  recs : int64 array list option;  (* None: crashed *)
}

(* Open [dev] over [dir] and attach the log at [base] with [attach],
   crashing at persistence op [crash_at] if given. *)
let run_sweep attach dev dir ~base ~crash_at =
  let cp = Scm.Crashpoint.create () in
  Option.iter (fun k -> Scm.Crashpoint.arm cp ~at:k) crash_at;
  let m = Scm.Env.machine_of_device ~crash_point:cp dev in
  let t = Region.Pmem.open_instance m (Region.Backing_store.open_dir dir) in
  let v = Region.Pmem.default_view t in
  let recs =
    match attach v ~base with
    | _, records -> Some records
    | exception Scm.Crashpoint.Simulated_crash _ ->
        Scm.Crash.inject m;
        None
  in
  let size = Scm.Scm_device.size_bytes dev in
  let image = Bytes.create size in
  Scm.Scm_device.read_into dev 0 image 0 size;
  { image; ops = Scm.Crashpoint.count cp; clock = v.env.Scm.Env.now (); recs }

(* Crash the sweep at every persistence op of its run, then recover
   again: the span sweep and the reference must leave identical
   devices, op counts and clocks at each step. *)
let check_sweep_matches_reference ~what dir dev0 ~base =
  let same step (a : sweep_outcome) (b : sweep_outcome) =
    let msg s = Printf.sprintf "%s, %s: %s" what step s in
    Alcotest.(check bool)
      (msg "device image") true
      (Bytes.equal a.image b.image);
    Alcotest.(check int) (msg "persistence ops") b.ops a.ops;
    Alcotest.(check int) (msg "simulated clock") b.clock a.clock;
    Alcotest.(check (option record_list)) (msg "records") b.recs a.recs
  in
  let both ~crash_at devs =
    let a = run_sweep Pmlog.Rawl.attach (fst devs) dir ~base ~crash_at in
    let b = run_sweep reference_attach (snd devs) dir ~base ~crash_at in
    (a, b)
  in
  let fresh () = (Scm.Scm_device.copy dev0, Scm.Scm_device.copy dev0) in
  let a, b = both ~crash_at:None (fresh ()) in
  same "uncrashed" a b;
  let size = Scm.Scm_device.size_bytes dev0 in
  let image0 = Bytes.create size in
  Scm.Scm_device.read_into dev0 0 image0 0 size;
  Alcotest.(check bool) (what ^ ": the sweep rewrote words") false
    (Bytes.equal a.image image0);
  let k = ref 1 and finished = ref false in
  while not !finished do
    let devs = fresh () in
    let a, b = both ~crash_at:(Some !k) devs in
    same (Printf.sprintf "crash at op %d" !k) a b;
    (match a.recs with
    | Some _ -> finished := true
    | None ->
        let a, b = both ~crash_at:None devs in
        same (Printf.sprintf "re-attach after a crash at op %d" !k) a b);
    incr k
  done

(* Store [w] raw at buffer position [pos]. *)
let plant_raw v ~base ~pos w =
  Region.Pmem.wtstore v (base + 64 + (8 * pos)) w

let test_erase_sweep_matches_reference () =
  (* two stale current-parity words in one line: the read after the
     first rewrite drains the WC buffer *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:1024 in
      ignore (Pmlog.Rawl.append log [| 1L; 2L |]);
      Pmlog.Rawl.flush log;
      plant v ~base ~pos:5 (chunks_of [| 3L; 4L |]);
      Scm.Crash.inject m;
      check_sweep_matches_reference ~what:"one line" dir m.Scm.Env.dev ~base);
  (* stale words beyond a gap, at line ends, at a page end and across
     the wrap: two truncated 286-word records leave the tail at
     position 572 of a 600-word log, so the free region wraps into the
     second pass (parity 0, where a current-parity word has the torn
     bit clear) *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:600 in
      List.iter
        (fun r ->
          ignore (Pmlog.Rawl.append log r);
          Pmlog.Rawl.flush log;
          Pmlog.Rawl.truncate_all log)
        [ Array.make 280 1L; Array.make 280 2L ];
      plant v ~base ~pos:580 (chunks_of [| 1L; 0xbadL |]);
      (* lines hold positions 8k..8k+7; position 503 ends the first
         page of the buffer *)
      List.iter
        (fun pos -> plant_raw v ~base ~pos 0x77L)
        [ 2; 3; 7; 8; 15; 300; 503; 504 ];
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      check_sweep_matches_reference ~what:"gap and wrap" dir m.Scm.Env.dev
        ~base);
  (* the tail in a second pass: never-written (zero) words carry the
     current parity there, so each needs filler *)
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_log v ~cap_words:64 in
      List.iter
        (fun r ->
          ignore (Pmlog.Rawl.append log r);
          Pmlog.Rawl.flush log;
          Pmlog.Rawl.truncate_all log)
        [ Array.make 40 1L; Array.make 20 2L ];
      (* spans of 42 and 22 words: the tail wraps to position 0 of the
         second pass, and the free region is positions 0..62 *)
      List.iter (fun pos -> plant_raw v ~base ~pos 0L) [ 30; 31; 40; 55; 62 ];
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      check_sweep_matches_reference ~what:"second pass" dir m.Scm.Env.dev
        ~base)

let test_attach_allocation_gate () =
  (* The erase sweep reads the free region in page spans with an
     allocation-free torn-bit test: attaching an empty 65,536-word log
     stays under 4,096 minor words (one non-temporal load per word
     costs about 16 each). *)
  with_tmpdir (fun dir ->
      let _, v = stack dir in
      let base, _ = make_log v ~cap_words:65536 in
      let w0 = Gc.minor_words () in
      let _, records = Pmlog.Rawl.attach v ~base in
      let words = Gc.minor_words () -. w0 in
      Alcotest.check record_list "empty" [] records;
      if words >= 4096. then
        Alcotest.failf "attach allocated %.0f minor words (gate: 4096)" words)

(* ------------------------------------------------------------------ *)
(* Commit log *)

let make_clog v ~cap_words =
  let base =
    Region.Pmem.pmap v (Pmlog.Commit_log.region_bytes_for ~cap_words)
  in
  (base, Pmlog.Commit_log.create v ~base ~cap_words)

let test_clog_append_and_recover () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:128 in
      let r1 = [| 1L; 2L |] and r2 = [| 3L |] in
      (match Pmlog.Commit_log.append log r1 with
      | Pmlog.Commit_log.Appended span -> Alcotest.(check int) "span" 4 span
      | Pmlog.Commit_log.Full -> Alcotest.fail "Full");
      ignore (Pmlog.Commit_log.append log r2);
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "recovered" [ r1; r2 ] records)

let test_clog_missing_commit_discards () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:128 in
      ignore (Pmlog.Commit_log.append log [| 7L |]);
      (* Manually fabricate a record whose commit word never landed:
         write header + payload, fence, crash before the commit word. *)
      let pos = base + 64 + (8 * 3) in
      Region.Pmem.wtstore v pos (Int64.logor (Int64.shift_left 0xC3L 56) 2L);
      Region.Pmem.wtstore v (pos + 8) 8L;
      Region.Pmem.wtstore v (pos + 16) 9L;
      Region.Pmem.fence v;
      Scm.Crash.inject m;
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "uncommitted record dropped" [ [| 7L |] ]
        records)

let test_clog_wraparound () =
  with_tmpdir (fun dir ->
      let m, v = stack dir in
      let base, log = make_clog v ~cap_words:32 in
      for round = 1 to 20 do
        (match Pmlog.Commit_log.append log (Array.make 6 (Int64.of_int round))
         with
        | Pmlog.Commit_log.Appended _ -> ()
        | Pmlog.Commit_log.Full -> Alcotest.fail "Full");
        Pmlog.Commit_log.truncate_all log
      done;
      ignore (Pmlog.Commit_log.append log [| 99L |]);
      let _, v' = reboot m dir in
      let _, records = Pmlog.Commit_log.attach v' ~base in
      Alcotest.check record_list "stale pre-wrap data ignored" [ [| 99L |] ]
        records)

let () =
  Alcotest.run "log"
    [
      ( "bitstream",
        [
          Alcotest.test_case "stored_words_for" `Quick test_stored_words_for;
          Alcotest.test_case "roundtrip small" `Quick
            test_bitstream_roundtrip_small;
          QCheck_alcotest.to_alcotest prop_bitstream_roundtrip;
        ] );
      ( "rawl",
        [
          Alcotest.test_case "append and recover" `Quick
            test_rawl_append_and_recover;
          Alcotest.test_case "unflushed append lost" `Quick
            test_rawl_unflushed_append_lost;
          Alcotest.test_case "torn append detected" `Quick
            test_rawl_torn_append_detected;
          Alcotest.test_case "bit flip injection" `Quick
            test_rawl_bit_flip_injection;
          Alcotest.test_case "wraparound many passes" `Quick
            test_rawl_wraparound_many_passes;
          Alcotest.test_case "full and space accounting" `Quick
            test_rawl_full_and_space_accounting;
          Alcotest.test_case "advance head partial" `Quick
            test_rawl_advance_head_partial;
          Alcotest.test_case "double crash after recovery" `Quick
            test_rawl_double_crash_after_recovery;
          Alcotest.test_case "tornbit rotation" `Quick
            test_rawl_tornbit_rotation;
          QCheck_alcotest.to_alcotest prop_rawl_recovery_prefix;
          QCheck_alcotest.to_alcotest prop_rawl_rotation_roundtrip;
        ] );
      ( "rawl-adversarial",
        [
          Alcotest.test_case "max_record_words boundary" `Quick
            test_rawl_max_record_words_boundary;
          Alcotest.test_case "implausible length rejected" `Quick
            test_rawl_implausible_length_rejected;
          Alcotest.test_case "stale word beyond gap erased" `Quick
            test_rawl_stale_word_beyond_gap_erased;
          Alcotest.test_case "partial trailing record over wrap" `Quick
            test_rawl_partial_trailing_wrap;
          Alcotest.test_case "crash during recovery is idempotent" `Quick
            test_rawl_recovery_crash_idempotent;
          Alcotest.test_case "erase sweep matches per-word reference" `Quick
            test_erase_sweep_matches_reference;
          Alcotest.test_case "attach allocation gate" `Quick
            test_attach_allocation_gate;
        ] );
      ( "commit-log",
        [
          Alcotest.test_case "append and recover" `Quick
            test_clog_append_and_recover;
          Alcotest.test_case "missing commit discards" `Quick
            test_clog_missing_commit_discards;
          Alcotest.test_case "wraparound" `Quick test_clog_wraparound;
        ] );
    ]
