type t = {
  dir : string;
  page_io_ns : int;
  names : (string, int) Hashtbl.t;
  sizes : (int, int) Hashtbl.t;
      (* inode -> length of every file present: stat'ed once at open,
         then kept by this store, the directory's only writer *)
  mutable next_inode : int;
}

(* Monotone count of mutating operations across every store.  Lets the
   crash-point explorer prove a scratch directory was left untouched by
   a run and skip re-seeding it from the setup copy. *)
let mutations = ref 0
let global_mutations () = !mutations

let index_path t = Filename.concat t.dir "index"

let file_path t inode = Filename.concat t.dir (Printf.sprintf "f%06d" inode)

let save_index t =
  let oc = open_out_bin (index_path t) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_binary_int oc t.next_inode;
      output_binary_int oc (Hashtbl.length t.names);
      Hashtbl.iter
        (fun name inode ->
          output_binary_int oc (String.length name);
          output_string oc name;
          output_binary_int oc inode)
        t.names)

let load_index t =
  if Sys.file_exists (index_path t) then begin
    let ic = open_in_bin (index_path t) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        t.next_inode <- input_binary_int ic;
        let n = input_binary_int ic in
        for _ = 1 to n do
          let len = input_binary_int ic in
          let name = really_input_string ic len in
          let inode = input_binary_int ic in
          Hashtbl.replace t.names name inode
        done)
  end

let open_dir ?(page_io_ns = 2500) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t =
    {
      dir;
      page_io_ns;
      names = Hashtbl.create 8;
      sizes = Hashtbl.create 8;
      next_inode = 1;
    }
  in
  load_index t;
  Array.iter
    (fun name ->
      if String.length name = 7 && name.[0] = 'f' then
        match int_of_string_opt (String.sub name 1 6) with
        | Some inode ->
            Hashtbl.replace t.sizes inode
              (Unix.stat (file_path t inode)).Unix.st_size
        | None -> ())
    (Sys.readdir dir);
  t

let dir t = t.dir
let page_io_ns t = t.page_io_ns

let create_file t ?name () =
  incr mutations;
  let inode = t.next_inode in
  t.next_inode <- inode + 1;
  let oc = open_out_bin (file_path t inode) in
  close_out oc;
  Hashtbl.replace t.sizes inode 0;
  (match name with Some n -> Hashtbl.replace t.names n inode | None -> ());
  save_index t;
  inode

let find t name = Hashtbl.find_opt t.names name

let delete_file t inode =
  incr mutations;
  if Hashtbl.mem t.sizes inode then begin
    Sys.remove (file_path t inode);
    Hashtbl.remove t.sizes inode
  end;
  let stale =
    Hashtbl.fold (fun n i acc -> if i = inode then n :: acc else acc) t.names []
  in
  List.iter (Hashtbl.remove t.names) stale;
  save_index t

let file_exists t inode = Hashtbl.mem t.sizes inode

let list_inodes t =
  Hashtbl.fold (fun inode _ acc -> inode :: acc) t.sizes []
  |> List.sort compare

let size t inode = Option.value (Hashtbl.find_opt t.sizes inode) ~default:0

(* A page at or past end of file (every page of a file created empty
   and not yet written) reads as zeros without touching the file. *)
let read_page t inode page_off buf =
  let len = Bytes.length buf in
  let start = page_off * len in
  let avail = min len (size t inode - start) in
  if avail <= 0 then Bytes.fill buf 0 len '\000'
  else begin
    let ic = open_in_bin (file_path t inode) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        seek_in ic start;
        really_input ic buf 0 avail;
        if avail < len then Bytes.fill buf avail (len - avail) '\000')
  end

let write_page t inode page_off buf =
  incr mutations;
  let p = file_path t inode in
  let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let start = page_off * Bytes.length buf in
      ignore (Unix.lseek fd start Unix.SEEK_SET);
      let rec write_all off remaining =
        if remaining > 0 then begin
          let n = Unix.write fd buf off remaining in
          write_all (off + n) (remaining - n)
        end
      in
      write_all 0 (Bytes.length buf));
  Hashtbl.replace t.sizes inode
    (max (size t inode) ((page_off + 1) * Bytes.length buf))

let sync t =
  incr mutations;
  save_index t
