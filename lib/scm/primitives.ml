(* A cached access to a line with pending streaming stores would refill
   the line from stale device contents; real write-combining buffers may
   flush spontaneously, so model exactly that and drain first. *)
let drain_if_pending (env : Env.t) addr =
  if Wc_buffer.pending_in_line env.wc addr then Wc_buffer.drain env.wc

let load (env : Env.t) addr =
  env.delay env.machine.latency.cache_hit_ns;
  if Wc_buffer.is_empty env.wc then Cache.read_word env.machine.cache addr
  else
    match Wc_buffer.lookup env.wc addr with
    | Some v -> v
    | None ->
        drain_if_pending env addr;
        Cache.read_word env.machine.cache addr

(* Non-temporal load: coherent, but never allocates a cache line —
   recovery-time sweeps over whole regions must leave the cache (and
   its eviction rng) untouched.  Sequential streaming reads pipeline at
   bandwidth, so a whole 4-KiB log buffer streams in well under a
   microsecond — and charging (or even yielding to the simulator) per
   word would perturb every process interleaving whenever a thread
   attaches a log.  No latency is charged per word; the writes such a
   sweep decides to make go through {!wtstore} and pay full price. *)
let load_nt (env : Env.t) addr =
  if Wc_buffer.is_empty env.wc then Cache.peek_word env.machine.cache addr
  else
    match Wc_buffer.lookup env.wc addr with
    | Some v -> v
    | None ->
        drain_if_pending env addr;
        Cache.peek_word env.machine.cache addr

(* [nwords] {!load_nt} calls in address order, one line at a time.
   A line read while the WC buffer is empty is one cache peek; while
   anything is pending, the line goes word by word through [load_nt],
   so store forwarding and the drain it may trigger happen at exactly
   the word they would. *)
let load_nt_into (env : Env.t) addr dst off nwords =
  if not (Word.is_aligned addr) then
    invalid_arg (Printf.sprintf "Primitives.load_nt_into: unaligned %#x" addr);
  let cache = env.machine.cache in
  let line = Cache.line_size cache in
  let a = ref addr and o = ref off and left = ref nwords in
  while !left > 0 do
    let n = min !left ((line - (!a mod line)) / 8) in
    if Wc_buffer.is_empty env.wc then Cache.peek_into cache !a dst !o (8 * n)
    else
      for i = 0 to n - 1 do
        Word.set dst (!o + (8 * i)) (load_nt env (!a + (8 * i)))
      done;
    a := !a + (8 * n);
    o := !o + (8 * n);
    left := !left - n
  done

let store (env : Env.t) addr v =
  env.delay env.machine.latency.cache_hit_ns;
  if not (Wc_buffer.is_empty env.wc) then drain_if_pending env addr;
  (* The cache is shared between threads: re-stamp the owner on each
     store so attribution survives interleaving. *)
  Cache.set_owner env.machine.cache env.cur_txid;
  Cache.write_word env.machine.cache addr v

let wtstore (env : Env.t) addr v =
  env.delay env.machine.latency.wc_post_ns;
  (* movnt bypasses the cache; make sure a dirty cached copy of the line
     does not later overwrite the streamed data, and that subsequent
     cached loads do not see stale data. *)
  Cache.wt_invalidate env.machine.cache addr;
  Wc_buffer.set_owner env.wc env.cur_txid;
  Wc_buffer.post env.wc addr v

(* PCM media writes pass through the single memory controller: a
   1/banks share of each write's cost serializes against other threads
   (the controller/bus slot); the rest is bank-parallel device time
   charged privately.  A single-threaded caller sees exactly the full
   cost; concurrent flushers delay each other by the serialized share —
   the effect behind paper figure 6's low-idle slowdown. *)
let[@inline] media_write_occ (env : Env.t) cost_ns occupancy =
  let m = env.machine in
  let now = env.now () in
  let start = max now m.media_busy_until in
  let finish = start + occupancy in
  m.media_busy_until <- finish;
  env.delay (finish - now + (cost_ns - occupancy))

let media_write (env : Env.t) cost_ns =
  media_write_occ env cost_ns
    (cost_ns / max 1 env.machine.latency.media_banks)

let flush_impl (env : Env.t) addr =
  let wrote = Cache.flush_line env.machine.cache addr in
  if wrote then
    media_write_occ env env.machine.latency.pcm_write_ns env.machine.pcm_occ
  else env.delay env.machine.latency.cache_hit_ns

let flush (env : Env.t) addr =
  let obs = env.machine.obs in
  Obs.Metrics.incr env.machine.flush_ctr;
  if not (Obs.tracing obs) then flush_impl env addr
  else begin
    let t0 = env.now () in
    flush_impl env addr;
    Obs.complete obs Obs.Trace.Flush ~ts:t0 ~dur:(env.now () - t0) ~arg:addr
  end

let fence_impl (env : Env.t) =
  Crashpoint.tick env.machine.crash_point Crashpoint.Fence;
  let lat = env.machine.latency in
  let bytes = Wc_buffer.pending_bytes env.wc in
  (match env.machine.pmcheck with
  | None -> ()
  | Some chk -> Pmcheck.note_fence chk ~pending_words:(bytes / 8));
  Wc_buffer.drain env.wc;
  env.delay lat.fence_base_ns;
  if bytes > 0 then media_write env (Latency_model.streaming_write_ns lat bytes)

let fence (env : Env.t) =
  let obs = env.machine.obs in
  Obs.Metrics.incr env.machine.fence_ctr;
  if not (Obs.tracing obs) then fence_impl env
  else begin
    let t0 = env.now () in
    let bytes = Wc_buffer.pending_bytes env.wc in
    fence_impl env;
    Obs.complete obs Obs.Trace.Fence ~ts:t0 ~dur:(env.now () - t0) ~arg:bytes
  end

(* One fence ordering several threads' pending streaming stores at once
   (group commit).  Each member's WC buffer drains — so every member's
   prior appends are durable afterwards, exactly as if each had fenced —
   but the group shares a single serialization point: the head of the
   list (the leader, the only member actually running; the rest are
   parked) pays one fence base cost plus one combined streaming burst
   through the memory controller instead of one burst per member.  Each
   member still gets its own sanitizer fence note, so per-word
   durability state stays exact. *)
let fence_group_impl (envs : Env.t list) =
  match envs with
  | [] -> ()
  | leader :: _ ->
      Crashpoint.tick leader.machine.crash_point Crashpoint.Fence;
      let total =
        List.fold_left
          (fun acc (env : Env.t) ->
            let bytes = Wc_buffer.pending_bytes env.wc in
            (match env.machine.pmcheck with
            | None -> ()
            | Some chk -> Pmcheck.note_fence chk ~pending_words:(bytes / 8));
            Wc_buffer.drain env.wc;
            acc + bytes)
          0 envs
      in
      leader.delay leader.machine.latency.fence_base_ns;
      if total > 0 then
        media_write leader
          (Latency_model.streaming_write_ns leader.machine.latency total)

let fence_group (envs : Env.t list) =
  match envs with
  | [] -> ()
  | leader :: _ ->
      let obs = leader.machine.obs in
      Obs.Metrics.incr leader.machine.fence_ctr;
      if not (Obs.tracing obs) then fence_group_impl envs
      else begin
        let t0 = leader.now () in
        let bytes =
          List.fold_left
            (fun acc (e : Env.t) -> acc + Wc_buffer.pending_bytes e.wc)
            0 envs
        in
        fence_group_impl envs;
        Obs.complete obs Obs.Trace.Fence ~ts:t0 ~dur:(leader.now () - t0)
          ~arg:bytes
      end

let load_bytes (env : Env.t) addr buf off len =
  (* Go word by word so pending streaming stores are forwarded. *)
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let word_base = a land lnot 7 in
    let within = a - word_base in
    let n = min (8 - within) (len - !i) in
    let w = load env word_base in
    let tmp = Bytes.create 8 in
    Word.set tmp 0 w;
    Bytes.blit tmp within buf (off + !i) n;
    i := !i + n
  done

let store_bytes (env : Env.t) addr buf off len =
  env.delay (env.machine.latency.cache_hit_ns * Word.words_for_bytes len);
  if Wc_buffer.pending_words env.wc > 0 then begin
    (* Any overlap between the range and pending streaming stores
       triggers a spontaneous drain, as in [store]. *)
    let a = ref (addr land lnot 63) in
    let overlap = ref false in
    while (not !overlap) && !a < addr + len do
      if Wc_buffer.pending_in_line env.wc !a then overlap := true;
      a := !a + 64
    done;
    if !overlap then Wc_buffer.drain env.wc
  end;
  Cache.set_owner env.machine.cache env.cur_txid;
  Cache.write_from env.machine.cache addr buf off len

let wtstore_bytes (env : Env.t) addr buf off len =
  if not (Word.is_aligned addr) || len land 7 <> 0 then
    invalid_arg "Primitives.wtstore_bytes: alignment";
  let nwords = len / 8 in
  for i = 0 to nwords - 1 do
    wtstore env (addr + (8 * i)) (Word.get buf (off + (8 * i)))
  done

let persist (env : Env.t) addr len =
  if len > 0 then begin
    let line = Cache.line_size env.machine.cache in
    let first = Cache.line_base env.machine.cache addr in
    let last = Cache.line_base env.machine.cache (addr + len - 1) in
    let a = ref first in
    while !a <= last do
      flush env !a;
      a := !a + line
    done;
    fence env
  end
