(* Tests for the region layer: mapping table, region manager (boot,
   fault, swap), libmnemosyne regions (pmap/punmap, intention log) and
   pstatic variables. *)

let with_tmpdir f =
  let dir =
    Filename.temp_file "mnemosyne" ""
  in
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

let machine ?(nframes = 256) () = Scm.Env.make_machine ~seed:11 ~nframes ()

(* ------------------------------------------------------------------ *)
(* Backing store *)

let page_of_char c = Bytes.make 4096 c

(* A page read into a buffer holding garbage, so zero-filling shows. *)
let read_back b inode page_off =
  let buf = Bytes.make 4096 '?' in
  Region.Backing_store.read_page b inode page_off buf;
  buf

let check_page msg c actual =
  Alcotest.(check bool) msg true (Bytes.equal (page_of_char c) actual)

let test_backing_write_past_eof () =
  with_tmpdir (fun dir ->
      let module B = Region.Backing_store in
      let b = B.open_dir dir in
      let inode = B.create_file b () in
      check_page "empty file reads zeros" '\000' (read_back b inode 0);
      B.write_page b inode 3 (page_of_char 'c');
      check_page "hole before the write" '\000' (read_back b inode 0);
      check_page "last hole page" '\000' (read_back b inode 2);
      check_page "written page" 'c' (read_back b inode 3);
      check_page "past the new end" '\000' (read_back b inode 4);
      B.write_page b inode 1 (page_of_char 'a');
      check_page "inner write" 'a' (read_back b inode 1);
      check_page "inner write keeps the end" 'c' (read_back b inode 3))

let test_backing_delete_then_recreate () =
  with_tmpdir (fun dir ->
      let module B = Region.Backing_store in
      let b = B.open_dir dir in
      let inode = B.create_file b () in
      B.write_page b inode 0 (page_of_char 'a');
      B.delete_file b inode;
      Alcotest.(check bool) "deleted" false (B.file_exists b inode);
      Alcotest.(check (list int)) "not listed" [] (B.list_inodes b);
      check_page "deleted file reads zeros" '\000' (read_back b inode 0);
      let inode' = B.create_file b () in
      Alcotest.(check bool) "fresh inode" true (inode' <> inode);
      Alcotest.(check bool) "recreated" true (B.file_exists b inode');
      check_page "new file starts empty" '\000' (read_back b inode' 0);
      B.write_page b inode' 0 (page_of_char 'b');
      check_page "new file written" 'b' (read_back b inode' 0);
      check_page "old inode stays gone" '\000' (read_back b inode 0))

let test_backing_reopen_existing () =
  with_tmpdir (fun dir ->
      let module B = Region.Backing_store in
      let b = B.open_dir dir in
      let named = B.create_file b ~name:"static" () in
      B.write_page b named 0 (page_of_char 's');
      B.write_page b named 2 (page_of_char 't');
      let empty = B.create_file b () in
      let gone = B.create_file b () in
      B.write_page b gone 0 (page_of_char 'g');
      B.delete_file b gone;
      B.sync b;
      let b' = B.open_dir dir in
      Alcotest.(check (option int)) "name survives" (Some named)
        (B.find b' "static");
      Alcotest.(check (list int)) "files found on open" [ named; empty ]
        (B.list_inodes b');
      Alcotest.(check bool) "deleted stays deleted" false
        (B.file_exists b' gone);
      check_page "page 0" 's' (read_back b' named 0);
      check_page "hole" '\000' (read_back b' named 1);
      check_page "page 2" 't' (read_back b' named 2);
      check_page "past the end" '\000' (read_back b' named 3);
      check_page "empty file" '\000' (read_back b' empty 0);
      B.write_page b' empty 1 (page_of_char 'e');
      check_page "extended after reopen" 'e' (read_back b' empty 1);
      Alcotest.(check bool) "fresh inodes continue" true
        (B.create_file b' () > gone))

(* ------------------------------------------------------------------ *)
(* Mapping table *)

let test_mapping_table_format_and_get () =
  let m = machine ~nframes:64 () in
  let table = Region.Mapping_table.create m.dev in
  Region.Mapping_table.format table m.dev;
  let reserved = Region.Mapping_table.frames_for ~nframes:64 in
  Alcotest.(check bool) "reserves at least one frame" true (reserved >= 1);
  (match Region.Mapping_table.get table 0 with
  | Region.Mapping_table.Reserved -> ()
  | _ -> Alcotest.fail "frame 0 should be reserved");
  match Region.Mapping_table.get table (reserved + 1) with
  | Region.Mapping_table.Free -> ()
  | _ -> Alcotest.fail "data frames should be free"

let test_mapping_table_durable_update () =
  let m = machine ~nframes:64 () in
  let table = Region.Mapping_table.create m.dev in
  Region.Mapping_table.format table m.dev;
  let env = Scm.Env.standalone m in
  Region.Mapping_table.set_mapped table env ~frame:10 ~inode:3 ~page_off:7;
  (* survives a crash: entry was written with write-through + fence *)
  Scm.Crash.inject m;
  let table' = Region.Mapping_table.create m.dev in
  match Region.Mapping_table.get table' 10 with
  | Region.Mapping_table.Mapped { inode = 3; page_off = 7 } -> ()
  | _ -> Alcotest.fail "mapping must survive the crash"

(* ------------------------------------------------------------------ *)
(* Manager *)

let test_manager_format_boot_roundtrip () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let f1 = Region.Manager.alloc_fresh mgr env ~inode ~page_off:0 in
      let f2 = Region.Manager.alloc_fresh mgr env ~inode ~page_off:1 in
      Alcotest.(check bool) "distinct frames" true (f1 <> f2);
      (* write something durable into the frame *)
      Scm.Scm_device.store64 m.dev (f1 * 4096) 4242L;
      (* reboot: volatile manager state is rebuilt from the table *)
      let mgr' = Region.Manager.boot m backing in
      Alcotest.(check (option int))
        "page 0 resident after boot" (Some f1)
        (Region.Manager.frame_of mgr' ~inode ~page_off:0);
      Alcotest.(check (option int))
        "page 1 resident after boot" (Some f2)
        (Region.Manager.frame_of mgr' ~inode ~page_off:1);
      let stats = Region.Manager.boot_stats mgr' in
      Alcotest.(check int) "scanned all frames" 64 stats.frames_scanned;
      Alcotest.(check int) "rebuilt two mappings" 2 stats.mappings_rebuilt;
      Alcotest.(check bool) "boot cost modeled" true (stats.boot_ns > 0))

let test_manager_swap_out_and_in () =
  with_tmpdir (fun dir ->
      (* Tiny device: reserved frames + 4 data frames force swapping. *)
      let m = machine ~nframes:5 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let data_frames = Region.Manager.free_frames mgr in
      Alcotest.(check int) "4 data frames" 4 data_frames;
      (* Touch more pages than frames; write a recognizable word into
         each through the device. *)
      for p = 0 to 7 do
        let f = Region.Manager.fault_in mgr env ~inode ~page_off:p in
        Scm.Scm_device.store64 m.dev (f * 4096) (Int64.of_int (1000 + p))
      done;
      Alcotest.(check bool) "swapped out" true (Region.Manager.swaps_out mgr > 0);
      (* Every page must read back its value, whether resident or not. *)
      for p = 0 to 7 do
        let f = Region.Manager.fault_in mgr env ~inode ~page_off:p in
        Alcotest.(check int64)
          (Printf.sprintf "page %d content" p)
          (Int64.of_int (1000 + p))
          (Scm.Scm_device.load64 m.dev (f * 4096))
      done)

let test_manager_release_pages () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let free0 = Region.Manager.free_frames mgr in
      for p = 0 to 5 do
        ignore (Region.Manager.fault_in mgr env ~inode ~page_off:p)
      done;
      Alcotest.(check int) "frames consumed" (free0 - 6)
        (Region.Manager.free_frames mgr);
      Region.Manager.release_pages mgr env ~inode;
      Alcotest.(check int) "frames returned" free0
        (Region.Manager.free_frames mgr))

(* ------------------------------------------------------------------ *)
(* Pmem: regions, persistence across reboot, intention log *)

let test_pmem_pmap_and_rw () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 10_000 in
      Alcotest.(check bool) "in persistent range" true
        (Region.Pmem.is_persistent r);
      Region.Pmem.store v r 17L;
      Region.Pmem.store v (r + 8192) 18L;  (* crosses into page 2 *)
      Alcotest.(check int64) "read back" 17L (Region.Pmem.load v r);
      Alcotest.(check int64) "read back p2" 18L (Region.Pmem.load v (r + 8192));
      Alcotest.(check (list (pair int int)))
        "region listed"
        [ (r, 12288) ]
        (Region.Pmem.regions t))

let test_pmem_byte_ops_across_pages () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 8192 in
      let data = Bytes.init 1000 (fun i -> Char.chr ((i * 7) mod 256)) in
      (* straddle the page boundary at r+4096 *)
      Region.Pmem.store_bytes v (r + 3600) data 0 1000;
      let back = Bytes.create 1000 in
      Region.Pmem.load_bytes v (r + 3600) back 0 1000;
      Alcotest.(check bytes) "byte roundtrip across pages" data back)

let test_pmem_persistence_across_reboot () =
  with_tmpdir (fun dir ->
      let image = Filename.concat dir "scm.img" in
      let addr =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let r = Region.Pmem.pmap v 4096 in
        Region.Pmem.wtstore v r 991L;
        Region.Pmem.fence v;
        (* crash, then save the device image = machine loses power *)
        Scm.Crash.inject m;
        Scm.Scm_device.save_image m.dev image;
        r
      in
      (* reboot: new machine from the image, fresh volatile state *)
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check (list (pair int int)))
        "region recreated"
        [ (addr, 4096) ]
        (Region.Pmem.regions t');
      Alcotest.(check int64) "data survived" 991L (Region.Pmem.load v' addr))

let test_pmem_punmap_deletes () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v 4096 in
      Region.Pmem.store v r 5L;
      Region.Pmem.punmap v r;
      Alcotest.(check (list (pair int int))) "no regions" []
        (Region.Pmem.regions t);
      Alcotest.check_raises "address no longer mapped"
        (Invalid_argument
           (Printf.sprintf "Pmem: address %#x is not in any persistent region"
              r))
        (fun () -> ignore (Region.Pmem.load v r)))

let test_pmem_address_reuse_after_punmap_is_clean () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r1 = Region.Pmem.pmap v 4096 in
      Region.Pmem.wtstore v r1 777L;
      Region.Pmem.fence v;
      Region.Pmem.punmap v r1;
      let r2 = Region.Pmem.pmap v ~addr:r1 4096 in
      Alcotest.(check int) "same address" r1 r2;
      Alcotest.(check int64) "fresh region reads zero" 0L
        (Region.Pmem.load v r2))

let test_pmem_intention_log_destroys_partial () =
  with_tmpdir (fun dir ->
      (* Simulate a crash in the middle of pmap: intent recorded, valid
         flag never set.  On the next open the region must be
         destroyed. *)
      let image = Filename.concat dir "scm.img" in
      (let m = machine () in
       let backing = Region.Backing_store.open_dir dir in
       let t = Region.Pmem.open_instance m backing in
       let v = Region.Pmem.default_view t in
       ignore (Region.Pmem.pmap v 4096);
       (* Manufacture a partially-created region: flip a valid entry
          back to intent-only, durably, as if we crashed mid-pmap. *)
       let rt_entry = Region.Layout.region_table_base + 64 in
       Region.Pmem.wtstore v (rt_entry + 24) 1L (* intent only *);
       Region.Pmem.fence v;
       Scm.Crash.inject m;
       Scm.Scm_device.save_image m.dev image);
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      Alcotest.(check (list (pair int int)))
        "partial region destroyed" [] (Region.Pmem.regions t'))

let test_pmem_swap_transparent_to_loads () =
  with_tmpdir (fun dir ->
      (* More region pages than SCM frames: loads/stores must still be
         coherent while the manager swaps underneath. *)
      let m = machine ~nframes:24 () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let npages = 40 in
      let r = Region.Pmem.pmap v (npages * 4096) in
      for p = 0 to npages - 1 do
        Region.Pmem.wtstore v (r + (p * 4096)) (Int64.of_int (p + 1));
        Region.Pmem.fence v
      done;
      Alcotest.(check bool) "swapping happened" true
        (Region.Manager.swaps_out (Region.Pmem.manager t) > 0);
      for p = 0 to npages - 1 do
        Alcotest.(check int64)
          (Printf.sprintf "page %d" p)
          (Int64.of_int (p + 1))
          (Region.Pmem.load v (r + (p * 4096)))
      done)

let test_pmem_close_then_fresh_device () =
  with_tmpdir (fun dir ->
      (* Clean shutdown writes regions to backing files; even a brand
         new (zeroed) SCM device must then recover the data. *)
      let r =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let r = Region.Pmem.pmap v 4096 in
        Region.Pmem.store v r 31337L;
        Region.Pmem.close v;
        r
      in
      let m' = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check int64) "recovered from backing files" 31337L
        (Region.Pmem.load v' r))

let test_wear_leveling_migrates_hot_pages () =
  with_tmpdir (fun dir ->
      let m = machine ~nframes:128 () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v (8 * 4096) in
      (* hammer page 0 with durable writes *)
      for i = 0 to 499 do
        Region.Pmem.wtstore v r (Int64.of_int i);
        Region.Pmem.fence v
      done;
      let mgr = Region.Pmem.manager t in
      let hot_frame =
        Region.Pmem.translate v r / 4096
      in
      let moved = Region.Pmem.wear_level v ~threshold:2.0 in
      Alcotest.(check bool) "hot page migrated" true (moved >= 1);
      let new_frame = Region.Pmem.translate v r / 4096 in
      Alcotest.(check bool) "frame changed" true (new_frame <> hot_frame);
      Alcotest.(check int64) "data preserved" 499L (Region.Pmem.load v r);
      ignore mgr;
      (* survives a reboot: the new mapping is durable *)
      Scm.Crash.inject m;
      let _, v' =
        let m' = Scm.Env.machine_of_device m.dev in
        let backing = Region.Backing_store.open_dir dir in
        let t' = Region.Pmem.open_instance m' backing in
        (m', Region.Pmem.default_view t')
      in
      Alcotest.(check int64) "data after reboot" 499L (Region.Pmem.load v' r))

let test_duplicate_mapping_resolved_at_boot () =
  with_tmpdir (fun dir ->
      (* Simulate a crash mid-wear-leveling migration: two frames carry
         the same (inode, page) mapping with identical contents. *)
      let m = machine ~nframes:64 () in
      let backing = Region.Backing_store.open_dir dir in
      let mgr = Region.Manager.format m backing in
      let env = Scm.Env.standalone m in
      let inode = Region.Backing_store.create_file backing () in
      let f1 = Region.Manager.alloc_fresh mgr env ~inode ~page_off:0 in
      Scm.Scm_device.store64 m.dev (f1 * 4096) 777L;
      (* duplicate the mapping onto another frame with the same data *)
      let table = Region.Mapping_table.create m.dev in
      let f2 = f1 + 1 in
      Scm.Scm_device.store64 m.dev (f2 * 4096) 777L;
      Region.Mapping_table.set_mapped table env ~frame:f2 ~inode ~page_off:0;
      (* boot: exactly one survives, the other returns to the free list *)
      let mgr' = Region.Manager.boot m backing in
      let stats = Region.Manager.boot_stats mgr' in
      Alcotest.(check int) "one mapping" 1 stats.mappings_rebuilt;
      (match Region.Manager.frame_of mgr' ~inode ~page_off:0 with
      | Some f ->
          Alcotest.(check int64) "content intact" 777L
            (Scm.Scm_device.load64 m.dev (f * 4096))
      | None -> Alcotest.fail "mapping lost");
      (* the duplicate's table entry was durably cleared *)
      let dups =
        let n = ref 0 in
        Region.Mapping_table.iter (Region.Mapping_table.create m.dev)
          (fun _ entry ->
            match entry with
            | Region.Mapping_table.Mapped { inode = i; page_off = 0 }
              when i = inode ->
                incr n
            | _ -> ());
        !n
      in
      Alcotest.(check int) "single table entry" 1 dups)

(* ------------------------------------------------------------------ *)
(* Pstatic *)

let test_pstatic_find_or_create () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let a = Region.Pstatic.get v "counter" 8 in
      Alcotest.(check int64) "zero initialized" 0L (Region.Pmem.load v a);
      Region.Pmem.wtstore v a 5L;
      Region.Pmem.fence v;
      let a' = Region.Pstatic.get v "counter" 8 in
      Alcotest.(check int) "same address" a a';
      Alcotest.(check (option (pair int int)))
        "lookup" (Some (a, 8))
        (Region.Pstatic.lookup v "counter");
      Alcotest.(check (option (pair int int)))
        "missing" None
        (Region.Pstatic.lookup v "nope");
      Alcotest.check_raises "length mismatch"
        (Invalid_argument "Pstatic.get: \"counter\" exists with length 8, not 16")
        (fun () -> ignore (Region.Pstatic.get v "counter" 16)))

let test_pstatic_survives_reboot () =
  with_tmpdir (fun dir ->
      let image = Filename.concat dir "scm.img" in
      let a =
        let m = machine () in
        let backing = Region.Backing_store.open_dir dir in
        let t = Region.Pmem.open_instance m backing in
        let v = Region.Pmem.default_view t in
        let a = Region.Pstatic.get v "root" 16 in
        Region.Pmem.wtstore v a 0xabcdL;
        Region.Pmem.fence v;
        Scm.Crash.inject m;
        Scm.Scm_device.save_image m.dev image;
        a
      in
      let dev = Scm.Scm_device.load_image image in
      let m' = Scm.Env.machine_of_device dev in
      let backing = Region.Backing_store.open_dir dir in
      let t' = Region.Pmem.open_instance m' backing in
      let v' = Region.Pmem.default_view t' in
      Alcotest.(check int) "same address after reboot" a
        (Region.Pstatic.get v' "root" 16);
      Alcotest.(check int64) "value survived" 0xabcdL
        (Region.Pmem.load v' a))

let test_pstatic_many_variables () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      let addrs =
        List.init 20 (fun i ->
            Region.Pstatic.get v (Printf.sprintf "var%02d" i) 8)
      in
      let distinct = List.sort_uniq compare addrs in
      Alcotest.(check int) "all distinct" 20 (List.length distinct);
      let count = ref 0 in
      Region.Pstatic.iter v (fun _ ~addr:_ ~len ->
          incr count;
          Alcotest.(check int) "len" 8 len);
      Alcotest.(check int) "iter sees all" 20 !count)

let test_error_paths () =
  with_tmpdir (fun dir ->
      let m = machine () in
      let backing = Region.Backing_store.open_dir dir in
      let t = Region.Pmem.open_instance m backing in
      let v = Region.Pmem.default_view t in
      Alcotest.check_raises "pmap zero length"
        (Invalid_argument "Pmem.pmap: length") (fun () ->
          ignore (Region.Pmem.pmap v 0));
      Alcotest.check_raises "pmap unaligned explicit address"
        (Invalid_argument "Pmem.pmap: unaligned address") (fun () ->
          ignore (Region.Pmem.pmap v ~addr:(Region.Layout.dynamic_base + 5) 4096));
      Alcotest.check_raises "pmap outside range"
        (Invalid_argument "Pmem.pmap: address outside the persistent range")
        (fun () -> ignore (Region.Pmem.pmap v ~addr:4096 4096));
      let r = Region.Pmem.pmap v 8192 in
      Alcotest.check_raises "pmap overlapping"
        (Invalid_argument "Pmem.pmap: address already mapped") (fun () ->
          ignore (Region.Pmem.pmap v ~addr:r 4096));
      Alcotest.check_raises "punmap middle of region"
        (Invalid_argument "Pmem.punmap: address is not a region base")
        (fun () -> Region.Pmem.punmap v (r + 4096));
      Alcotest.check_raises "punmap static region"
        (Invalid_argument "Pmem.punmap: cannot unmap the static region")
        (fun () -> Region.Pmem.punmap v Region.Layout.static_base);
      Alcotest.check_raises "load outside persistent range"
        (Invalid_argument "Pmem: 0x10 is not a persistent address") (fun () ->
          ignore (Region.Pmem.load v 16));
      Alcotest.check_raises "pstatic name too long"
        (Invalid_argument "Pstatic.get: name too long") (fun () ->
          ignore (Region.Pstatic.get v (String.make 40 'x') 8)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_pstatic_crash_atomic =
  (* crash right after creating variables: each one either resolves to
     its full definition or is absent; re-creating is always safe *)
  QCheck.Test.make ~name:"pstatic creation is crash-atomic" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 1 12))
    (fun (seed, nvars) ->
      with_tmpdir (fun dir ->
          let m = Scm.Env.make_machine ~seed ~nframes:256 () in
          let backing = Region.Backing_store.open_dir dir in
          let t = Region.Pmem.open_instance m backing in
          let v = Region.Pmem.default_view t in
          let addrs =
            List.init nvars (fun i ->
                Region.Pstatic.get v (Printf.sprintf "var%02d" i) 16)
          in
          Scm.Crash.inject m;
          let m' = Scm.Env.machine_of_device m.dev in
          let backing = Region.Backing_store.open_dir dir in
          let t' = Region.Pmem.open_instance m' backing in
          let v' = Region.Pmem.default_view t' in
          List.for_all
            (fun i ->
              let name = Printf.sprintf "var%02d" i in
              match Region.Pstatic.lookup v' name with
              | Some (addr, 16) ->
                  (* survived: must be exactly where it was *)
                  addr = List.nth addrs i
              | Some _ -> false
              | None ->
                  (* lost in the crash: recreating must succeed *)
                  Region.Pstatic.get v' name 16 > 0)
            (List.init nvars Fun.id)))

let prop_pmem_wordwise_model =
  QCheck.Test.make ~name:"pmem loads match a model under random stores"
    ~count:40
    QCheck.(list (pair (int_bound 511) (int_bound 10_000)))
    (fun ops ->
      with_tmpdir (fun dir ->
          let m = machine ~nframes:16 () in
          let backing = Region.Backing_store.open_dir dir in
          let t = Region.Pmem.open_instance m backing in
          let v = Region.Pmem.default_view t in
          let r = Region.Pmem.pmap v (8 * 4096) in
          let model = Hashtbl.create 64 in
          List.iter
            (fun (slot, value) ->
              let addr = r + (slot * 8) in
              let value = Int64.of_int value in
              if value = 0L then Region.Pmem.flush v addr
              else begin
                Region.Pmem.store v addr value;
                Hashtbl.replace model slot value
              end)
            ops;
          Hashtbl.fold
            (fun slot expected ok ->
              ok && Region.Pmem.load v (r + (slot * 8)) = expected)
            model true))

(* A span read must be indistinguishable from the per-word loop it
   replaces: same values, and the same state left behind in every
   layer a non-temporal read can touch.  The state is built twice from
   one op list, over more region pages than SCM frames (so some pages
   live only in their backing file, and some lie past its end) and a
   small cache: durable words, dirty cached lines and streaming stores
   left pending, some sharing a line with words that are not.  The op
   list ends with a few unfenced streaming stores into the read page,
   so the read often runs into pending words. *)
type nt_op = Wt of int | Store of int | Fence | Flush of int

let gen_nt_case =
  QCheck.Gen.(
    let word = int_bound ((20 * 512) - 1) in
    let op =
      frequency
        [ (4, map (fun w -> Wt w) word); (4, map (fun w -> Store w) word);
          (1, return Fence); (1, map (fun w -> Flush w) word) ]
    in
    quad bool
      (pair (list_size (0 -- 150) op) (list_size (0 -- 4) (int_bound 511)))
      (int_bound 19)
      (pair (int_bound 511) (int_bound 512)))

let print_nt_case (pm, (ops, posts), page, (first, n)) =
  Printf.sprintf "pmcheck=%b page=%d first=%d n=%d posts=[%s] ops=[%s]" pm
    page first n
    (String.concat ";" (List.map string_of_int posts))
    (String.concat ";"
       (List.map
          (function
            | Wt w -> Printf.sprintf "Wt %d" w
            | Store w -> Printf.sprintf "Store %d" w
            | Fence -> "Fence"
            | Flush w -> Printf.sprintf "Flush %d" w)
          ops))

type nt_state = {
  values : int64 list;
  ops : int;  (* Crashpoint.count *)
  pending : int;  (* WC pending words *)
  drains : int;  (* scm.wc.drains *)
  resident : int;
  dirty : int list;
  evictions : int;
  after : int list * int;  (* dirty lines and evictions after a refill *)
  file_writes : int;  (* Backing_store.global_mutations during the read *)
  clock : int;  (* simulated ns charged by the read *)
  violations : int;
}

let nt_run ~span (pm, (ops, posts), page, (first, n)) =
  with_tmpdir (fun dir ->
      let m =
        Scm.Env.make_machine ~seed:11 ~nframes:24 ~cache_capacity_lines:32 ()
      in
      if pm then ignore (Scm.Env.install_pmcheck m);
      let t = Region.Pmem.open_instance m (Region.Backing_store.open_dir dir) in
      let v = Region.Pmem.default_view t in
      let r = Region.Pmem.pmap v (24 * 4096) in
      let addr w = r + (8 * w) in
      List.iter
        (function
          | Wt w -> Region.Pmem.wtstore v (addr w) (Int64.of_int (w + 1))
          | Store w -> Region.Pmem.store v (addr w) (Int64.of_int (-w))
          | Fence -> Region.Pmem.fence v
          | Flush w -> Region.Pmem.flush v (addr w))
        (ops @ List.map (fun w -> Wt ((512 * page) + w)) posts);
      let n = min n (512 - first) in
      let a = r + (page * 4096) + (8 * first) in
      let mut0 = Region.Backing_store.global_mutations () in
      let clock0 = v.env.Scm.Env.now () in
      let values =
        if span then begin
          let buf = Bytes.create (8 * n) in
          Region.Pmem.load_nt_into v a buf 0 n;
          List.init n (fun i -> Bytes.get_int64_le buf (8 * i))
        end
        else List.init n (fun i -> Region.Pmem.load_nt v (a + (8 * i)))
      in
      let file_writes = Region.Backing_store.global_mutations () - mut0 in
      let clock = v.env.Scm.Env.now () - clock0 in
      let cache = m.Scm.Env.cache in
      let state =
        {
          values;
          ops = Scm.Crashpoint.count m.Scm.Env.crash_point;
          pending = Scm.Wc_buffer.pending_words v.env.Scm.Env.wc;
          drains =
            Obs.Metrics.counter_value
              (Obs.Metrics.counter m.Scm.Env.obs.Obs.metrics "scm.wc.drains");
          resident = Scm.Cache.resident_lines cache;
          dirty = Scm.Cache.dirty_lines cache;
          evictions = Scm.Cache.evictions cache;
          after = ([], 0);
          file_writes;
          clock;
          violations =
            (match m.Scm.Env.pmcheck with
            | None -> 0
            | Some chk -> Scm.Pmcheck.total_violations chk);
        }
      in
      (* the next eviction draws: dirty 64 fresh lines past the region's
         frames and see which lines survive *)
      for i = 0 to 63 do
        Scm.Cache.write_word cache ((20 * 4096) + (64 * i)) 1L
      done;
      {
        state with
        after = (Scm.Cache.dirty_lines cache, Scm.Cache.evictions cache);
      })

let prop_load_nt_into_matches_words =
  QCheck.Test.make ~name:"span non-temporal read equals per-word reads"
    ~count:150
    (QCheck.make ~print:print_nt_case gen_nt_case)
    (fun case ->
      let span = nt_run ~span:true case in
      span.clock = 0 && span = nt_run ~span:false case)

let () =
  Alcotest.run "region"
    [
      ( "mapping-table",
        [
          Alcotest.test_case "format and get" `Quick
            test_mapping_table_format_and_get;
          Alcotest.test_case "durable update" `Quick
            test_mapping_table_durable_update;
        ] );
      ( "backing-store",
        [
          Alcotest.test_case "write past end of file" `Quick
            test_backing_write_past_eof;
          Alcotest.test_case "delete then recreate" `Quick
            test_backing_delete_then_recreate;
          Alcotest.test_case "reopen over existing files" `Quick
            test_backing_reopen_existing;
        ] );
      ( "manager",
        [
          Alcotest.test_case "format/boot roundtrip" `Quick
            test_manager_format_boot_roundtrip;
          Alcotest.test_case "swap out and in" `Quick
            test_manager_swap_out_and_in;
          Alcotest.test_case "release pages" `Quick test_manager_release_pages;
          Alcotest.test_case "wear leveling migrates hot pages" `Quick
            test_wear_leveling_migrates_hot_pages;
          Alcotest.test_case "duplicate mapping resolved at boot" `Quick
            test_duplicate_mapping_resolved_at_boot;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "pmap and rw" `Quick test_pmem_pmap_and_rw;
          Alcotest.test_case "byte ops across pages" `Quick
            test_pmem_byte_ops_across_pages;
          Alcotest.test_case "persistence across reboot" `Quick
            test_pmem_persistence_across_reboot;
          Alcotest.test_case "punmap deletes" `Quick test_pmem_punmap_deletes;
          Alcotest.test_case "address reuse after punmap" `Quick
            test_pmem_address_reuse_after_punmap_is_clean;
          Alcotest.test_case "intention log destroys partial" `Quick
            test_pmem_intention_log_destroys_partial;
          Alcotest.test_case "swap transparent to loads" `Quick
            test_pmem_swap_transparent_to_loads;
          Alcotest.test_case "close then fresh device" `Quick
            test_pmem_close_then_fresh_device;
        ] );
      ( "pstatic",
        [
          Alcotest.test_case "find or create" `Quick
            test_pstatic_find_or_create;
          Alcotest.test_case "survives reboot" `Quick
            test_pstatic_survives_reboot;
          Alcotest.test_case "many variables" `Quick
            test_pstatic_many_variables;
        ] );
      ("errors", [ Alcotest.test_case "error paths" `Quick test_error_paths ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pmem_wordwise_model;
          QCheck_alcotest.to_alcotest prop_load_nt_into_matches_words;
          QCheck_alcotest.to_alcotest prop_pstatic_crash_atomic;
        ] );
    ]
