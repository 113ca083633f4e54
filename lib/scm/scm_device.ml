(* The device is one [Bytes.t] per frame, and storage is paid for by
   touch, not by geometry.  Every frame starts as the device's one
   shared, never-written [zero] frame; the first write to a frame gives
   it its own bytes, and a whole-frame write of zeros (a fresh page, a
   zero-page fault) hands it back.  Reads need no branch. *)
type t = {
  frames : Bytes.t array;
  zero : Bytes.t;
  frame_size : int;
  fshift : int;  (* log2 frame_size, or -1 if not a power of two *)
  nframes : int;
  size : int;  (* nframes * frame_size *)
  writes : int array;  (* per-frame wear counters *)
  mutable total_writes : int;
  (* Undo journal (crash-point exploration): when enabled, every
     mutation records the span's old contents (and which frame's wear
     counter it bumped) before overwriting, so rolling the device back
     to a mark costs O(bytes written since), not O(arena).  Entry [i]
     is [j_addrs.(i), j_lens.(i)] with its old bytes at [j_offs.(i)]
     in [j_bytes]; [j_frames.(i)] is the bumped frame or -1. *)
  mutable j_on : bool;
  mutable j_addrs : int array;
  mutable j_lens : int array;
  mutable j_offs : int array;
  mutable j_frames : int array;
  mutable j_n : int;
  mutable j_bytes : Bytes.t;
  mutable j_blen : int;
}

type mark = { m_n : int; m_blen : int }

(* Wear accounting runs on every persistent write; for the usual
   power-of-two frame size the frame index is a shift, not an integer
   division (the divisor is a runtime value, so the compiler cannot
   strength-reduce it). *)
let shift_of frame_size =
  if frame_size land (frame_size - 1) <> 0 then -1
  else begin
    let s = ref 0 in
    while 1 lsl !s < frame_size do
      incr s
    done;
    !s
  end

(* A device over [frames]; the journal starts fresh and disabled. *)
let of_frames ~zero ~frame_size frames writes total_writes =
  let nframes = Array.length frames in
  {
    frames;
    zero;
    frame_size;
    fshift = shift_of frame_size;
    nframes;
    size = nframes * frame_size;
    writes;
    total_writes;
    j_on = false;
    j_addrs = [||];
    j_lens = [||];
    j_offs = [||];
    j_frames = [||];
    j_n = 0;
    j_bytes = Bytes.empty;
    j_blen = 0;
  }

let create ?(frame_size = 4096) ~nframes () =
  if nframes <= 0 then invalid_arg "Scm_device.create: nframes";
  if frame_size <= 0 || frame_size land 7 <> 0 then
    invalid_arg "Scm_device.create: frame_size";
  let zero = Bytes.make frame_size '\000' in
  of_frames ~zero ~frame_size (Array.make nframes zero) (Array.make nframes 0) 0

let frame_size t = t.frame_size
let nframes t = t.nframes
let size_bytes t = t.size

let check t addr len =
  if addr < 0 || addr + len > t.size then
    invalid_arg
      (Printf.sprintf "Scm_device: address %#x+%d out of range" addr len)

let[@inline] frame_of t addr =
  if t.fshift >= 0 then addr lsr t.fshift else addr / t.frame_size

let[@inline] bump_frame t f =
  t.writes.(f) <- t.writes.(f) + 1;
  t.total_writes <- t.total_writes + 1

let copy_zero t f =
  let b = Bytes.make t.frame_size '\000' in
  t.frames.(f) <- b;
  b

let[@inline] writable t f =
  let b = t.frames.(f) in
  if b != t.zero then b else copy_zero t f

let is_zero buf off len =
  let rec go i =
    i >= len || (Bytes.get_int64_ne buf (off + i) = 0L && go (i + 8))
  in
  go 0

(* Write [n] bytes into frame [f] at [o]; a whole frame of zeros hands
   the frame back to the shared zero frame. *)
let put t f o buf off n =
  if n = t.frame_size && is_zero buf off n then t.frames.(f) <- t.zero
  else Bytes.blit buf off (writable t f) o n

(* Byte spans may cross frames.  A span within one frame (every word,
   and every line of the cache) takes the fast path; page-sized
   transfers and journal replay may split, calling [k f o pos n] for
   each piece: [n] bytes at offset [o] of frame [f], [pos] bytes into
   the span. *)
let iter_pieces t addr len k =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let f = frame_of t a in
    let o = a - (f * t.frame_size) in
    let n = min (len - !pos) (t.frame_size - o) in
    k f o !pos n;
    pos := !pos + n
  done

let blit_out t addr buf off len =
  let f = frame_of t addr in
  let o = addr - (f * t.frame_size) in
  if o + len <= t.frame_size then Bytes.blit t.frames.(f) o buf off len
  else
    iter_pieces t addr len (fun f o pos n ->
        Bytes.blit t.frames.(f) o buf (off + pos) n)

let blit_in t buf off addr len =
  let f = frame_of t addr in
  let o = addr - (f * t.frame_size) in
  if o + len <= t.frame_size then put t f o buf off len
  else iter_pieces t addr len (fun f o pos n -> put t f o buf (off + pos) n)

let j_grow_entries t =
  let cap = max 1024 (2 * Array.length t.j_addrs) in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.j_addrs <- extend t.j_addrs;
  t.j_lens <- extend t.j_lens;
  t.j_offs <- extend t.j_offs;
  t.j_frames <- extend t.j_frames

let j_grow_bytes t need =
  let cap = ref (max 65536 (2 * Bytes.length t.j_bytes)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit t.j_bytes 0 b 0 t.j_blen;
  t.j_bytes <- b

(* Capture [len] bytes at [addr] (about to be overwritten) plus which
   frame's wear counter the write will bump, or -1 for none. *)
let j_record t addr len frame =
  if t.j_n >= Array.length t.j_addrs then j_grow_entries t;
  if t.j_blen + len > Bytes.length t.j_bytes then j_grow_bytes t (t.j_blen + len);
  t.j_addrs.(t.j_n) <- addr;
  t.j_lens.(t.j_n) <- len;
  t.j_offs.(t.j_n) <- t.j_blen;
  t.j_frames.(t.j_n) <- frame;
  blit_out t addr t.j_bytes t.j_blen len;
  t.j_n <- t.j_n + 1;
  t.j_blen <- t.j_blen + len

let journal_start t =
  t.j_on <- true;
  t.j_n <- 0;
  t.j_blen <- 0

let journal_stop t =
  t.j_on <- false;
  t.j_n <- 0;
  t.j_blen <- 0

let journal_mark t = { m_n = t.j_n; m_blen = t.j_blen }

let journal_undo_to t mark =
  for i = t.j_n - 1 downto mark.m_n do
    blit_in t t.j_bytes t.j_offs.(i) t.j_addrs.(i) t.j_lens.(i);
    let f = t.j_frames.(i) in
    if f >= 0 then begin
      t.writes.(f) <- t.writes.(f) - 1;
      t.total_writes <- t.total_writes - 1
    end
  done;
  t.j_n <- mark.m_n;
  t.j_blen <- mark.m_blen

let load64 t addr =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.load64: unaligned %#x" addr);
  let f = frame_of t addr in
  Word.get t.frames.(f) (addr - (f * t.frame_size))

(* For drain loops over addresses already validated at post time (the
   write-combining buffer checks alignment and range on entry). *)
let[@inline] store64_unchecked t addr v =
  let f = frame_of t addr in
  if t.j_on then j_record t addr 8 f;
  Word.set (writable t f) (addr - (f * t.frame_size)) v;
  bump_frame t f

let store64 t addr v =
  check t addr 8;
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Scm_device.store64: unaligned %#x" addr);
  store64_unchecked t addr v

let load_byte t addr =
  check t addr 1;
  let f = frame_of t addr in
  Bytes.get t.frames.(f) (addr - (f * t.frame_size))

let read_into t addr buf off len =
  check t addr len;
  blit_out t addr buf off len

let write_from t addr buf off len =
  check t addr len;
  if len > 0 then begin
    let f = frame_of t addr in
    if t.j_on then j_record t addr len f;
    blit_in t buf off addr len;
    bump_frame t f
  end

let write_count t frame = t.writes.(frame)
let total_writes t = t.total_writes

let magic = "MNEMSCM1"

let header_bytes = String.length magic + 8

(* Untouched frames are left as holes: the file is extended to its full
   length and reads back exactly as a dense write would. *)
let save_image t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc t.frame_size;
      output_binary_int oc t.nframes;
      Array.iteri
        (fun f b ->
          if b != t.zero then begin
            let pos = header_bytes + (f * t.frame_size) in
            if pos_out oc <> pos then seek_out oc pos;
            output_bytes oc b
          end)
        t.frames;
      let len = header_bytes + t.size in
      if pos_out oc <> len then begin
        seek_out oc (len - 1);
        output_char oc '\000'
      end)

let load_image path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length magic) in
      if m <> magic then failwith "Scm_device.load_image: bad magic";
      let frame_size = input_binary_int ic in
      let nframes = input_binary_int ic in
      let t = create ~frame_size ~nframes () in
      let buf = ref (Bytes.create frame_size) in
      for f = 0 to nframes - 1 do
        really_input ic !buf 0 frame_size;
        if not (is_zero !buf 0 frame_size) then begin
          t.frames.(f) <- !buf;
          buf := Bytes.create frame_size
        end
      done;
      t)

(* Untouched frames stay shared; the copy's journal starts fresh and
   disabled (it is roll-back scaffolding for the source device). *)
let copy t =
  of_frames ~zero:t.zero ~frame_size:t.frame_size
    (Array.map (fun b -> if b == t.zero then b else Bytes.copy b) t.frames)
    (Array.copy t.writes) t.total_writes
