module Snapshot = Psn_spacetime.Snapshot
module Timegrid = Psn_spacetime.Timegrid

type config = {
  k : int;
  max_hops : int option;
  stop_at_total : int option;
  exhaustive : bool;
}

let default_config = { k = 2000; max_hops = None; stop_at_total = None; exhaustive = false }

type arrival = { path : Path.t; step : int; time : float; duration : float }

type result = {
  arrivals : arrival array;
  stopped_early : bool;
  steps_processed : int;
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;
}

(* ------------------------------------------------------------------ *)
(* Scratch                                                            *)

(* A growable int stack. *)
type vec = { mutable data : int array; mutable len : int }

let vec () = { data = [||]; len = 0 }

let grow v =
  let data = Array.make (Int.max 16 (2 * Array.length v.data)) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let[@psn.hot] push v x =
  if v.len = Array.length v.data then (grow v [@lint.allow "hot-path-alloc"]);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

(* One step's contact graph in compressed sparse rows: the neighbours
   of [u] are [adj.(start.(u)) .. adj.(start.(u + 1) - 1)], ascending. *)
type csr = { mutable start : int array; adj : vec }

let csr () = { start = [||]; adj = vec () }
let[@inline] degree c u = Array.unsafe_get c.start (u + 1) - Array.unsafe_get c.start u

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints len : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len
let[@inline] get (a : ints) i = Bigarray.Array1.unsafe_get a i
let[@inline] set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

(* Per-domain buffers, reused across runs so that a call allocates
   little beyond its result. [reset] empties every piece a run reads.

   Paths live in a pool of slots, one structure of arrays: the parent
   slot (-1 at the source), the last node, the step that node received
   the copy, the hop count, and the visited-node bitset in [words]
   63-bit words from [bits.{slot * words}]. A path is its last hop plus
   a parent pointer, so an extension appends one slot, and parents
   always precede their children. The pool lives outside the OCaml
   heap: the kernel allocates almost nothing, so the GC would otherwise
   pace its heap by the pool's live words alone. *)
type scratch = {
  mutable cap : int;  (* slots allocated *)
  mutable size : int;  (* slots in use *)
  mutable words : int;
  mutable parent : ints;
  mutable last : ints;
  mutable born : ints;
  mutable hops : ints;
  mutable bits : ints;
  mutable live_floor : int;  (* slots left after the last compaction *)
  mutable forward : ints;  (* compaction marks, then new slot ids *)
  mutable table : vec array;  (* per node: retained slots, nhops-ascending *)
  mutable fresh : vec array;  (* per node: this step's new slots, in creation order *)
  mutable merged : int array;  (* per node: the last step its table took new paths *)
  mutable limit : int array;  (* per node: most hops a new path may have this step *)
  touched : vec;  (* nodes with a non-empty [fresh] list *)
  mutable buckets : vec array;  (* per hop count: slots to expand this step, LIFO *)
  mutable spare : int array;  (* merge output, swapped with a table *)
  mutable cur : csr;  (* this step's contacts *)
  mutable prev : csr;  (* the previous step's contacts *)
  fresh_edges : csr;  (* this step's contacts absent the previous step *)
  mutable stamp : int array;  (* per node: last epoch that marked it *)
  mutable component : int array;  (* per node: epoch of the step it met dst's component *)
  mutable queue : int array;
  mutable mask : int array;  (* bitset of dst's contacts this step *)
  mutable epoch : int;  (* increases forever, so stamps never need clearing *)
}

let create_scratch () =
  {
    cap = 0;
    size = 0;
    words = 0;
    parent = ints 0;
    last = ints 0;
    born = ints 0;
    hops = ints 0;
    bits = ints 0;
    live_floor = 0;
    forward = ints 0;
    table = [||];
    fresh = [||];
    merged = [||];
    limit = [||];
    touched = vec ();
    buckets = [||];
    spare = [||];
    cur = csr ();
    prev = csr ();
    fresh_edges = csr ();
    stamp = [||];
    component = [||];
    queue = [||];
    mask = [||];
    epoch = 0;
  }

let scratch_key = Domain.DLS.new_key create_scratch

let extend_vecs vs n = Array.init n (fun i -> if i < Array.length vs then vs.(i) else vec ())

(* Size the per-node state for [n] nodes and empty it. *)
let reset s ~n =
  let words = (n + 62) / 63 in
  if Array.length s.table < n then begin
    s.table <- extend_vecs s.table n;
    s.fresh <- extend_vecs s.fresh n;
    s.merged <- Array.make n 0;
    s.limit <- Array.make n 0;
    s.stamp <- Array.make n 0;
    s.component <- Array.make n 0;
    s.queue <- Array.make n 0
  end;
  if Array.length s.buckets < n + 2 then s.buckets <- extend_vecs s.buckets (n + 2);
  if Array.length s.mask < words then s.mask <- Array.make words 0;
  if s.words <> words then begin
    s.words <- words;
    s.bits <- ints (s.cap * words)
  end;
  Array.iter (fun v -> v.len <- 0) s.table;
  Array.iter (fun v -> v.len <- 0) s.fresh;
  Array.iter (fun v -> v.len <- 0) s.buckets;
  Array.fill s.merged 0 (Array.length s.merged) min_int;
  s.touched.len <- 0;
  s.size <- 0;
  s.live_floor <- 0

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)

let[@inline] word_of v = v / 63
let[@inline] bit_of v = 1 lsl (v mod 63)
let[@inline] visited s slot v = get s.bits ((slot * s.words) + word_of v) land bit_of v <> 0

let resize (a : ints) ~used ~len =
  let b = ints len in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 used) (Bigarray.Array1.sub b 0 used);
  b

let grow_pool s =
  let cap = Int.max 1024 (2 * s.cap) in
  s.parent <- resize s.parent ~used:s.size ~len:cap;
  s.last <- resize s.last ~used:s.size ~len:cap;
  s.born <- resize s.born ~used:s.size ~len:cap;
  s.hops <- resize s.hops ~used:s.size ~len:cap;
  s.bits <- resize s.bits ~used:(s.size * s.words) ~len:(cap * s.words);
  s.cap <- cap

(* Append the path [parent] extended by the hop [(node, step)]; the
   root has [parent = -1]. *)
let[@psn.hot] append s ~parent ~node ~step =
  if s.size = s.cap then (grow_pool s [@lint.allow "hot-path-alloc"]);
  let q = s.size and w = s.words in
  s.size <- q + 1;
  set s.parent q parent;
  set s.last q node;
  set s.born q step;
  if parent < 0 then begin
    set s.hops q 1;
    for i = q * w to (q * w) + w - 1 do
      set s.bits i 0
    done
  end
  else begin
    set s.hops q (get s.hops parent + 1);
    for i = 0 to w - 1 do
      set s.bits ((q * w) + i) (get s.bits ((parent * w) + i))
    done
  end;
  let i = (q * w) + word_of node in
  set s.bits i (get s.bits i lor bit_of node);
  q

(* Mark-compact from the table roots. A slot is live when a table holds
   it or a live slot descends from it; parents precede children, so one
   backward pass marks and one forward pass slides live slots down in
   place, re-pointing parents through the map as it goes. *)
let compact s ~n =
  if Bigarray.Array1.dim s.forward < s.size then s.forward <- ints s.cap;
  let fwd = s.forward and w = s.words in
  Bigarray.Array1.fill (Bigarray.Array1.sub fwd 0 s.size) 0;
  for v = 0 to n - 1 do
    let t = s.table.(v) in
    for i = 0 to t.len - 1 do
      set fwd t.data.(i) 1
    done
  done;
  for slot = s.size - 1 downto 0 do
    let parent = get s.parent slot in
    if get fwd slot = 1 && parent >= 0 then set fwd parent 1
  done;
  let next = ref 0 in
  for slot = 0 to s.size - 1 do
    if get fwd slot = 1 then begin
      let q = !next in
      let parent = get s.parent slot in
      set s.parent q (if parent >= 0 then get fwd parent else parent);
      set s.last q (get s.last slot);
      set s.born q (get s.born slot);
      set s.hops q (get s.hops slot);
      for i = 0 to w - 1 do
        set s.bits ((q * w) + i) (get s.bits ((slot * w) + i))
      done;
      set fwd slot q;
      incr next
    end
  done;
  for v = 0 to n - 1 do
    let t = s.table.(v) in
    for i = 0 to t.len - 1 do
      t.data.(i) <- get fwd t.data.(i)
    done
  done;
  s.size <- !next;
  s.live_floor <- !next

(* ------------------------------------------------------------------ *)
(* Per-step contact structure                                         *)

let rec push_all v = function
  | [] -> ()
  | x :: rest ->
    push v x;
    push_all v rest

let fill_csr c snap ~step ~n =
  if Array.length c.start < n + 1 then c.start <- Array.make (n + 1) 0;
  c.adj.len <- 0;
  for u = 0 to n - 1 do
    c.start.(u) <- c.adj.len;
    push_all c.adj (Snapshot.neighbours snap ~step u)
  done;
  c.start.(n) <- c.adj.len

(* Contacts of this step that were not present the previous step (all
   of a node's contacts when it had none before). *)
let fill_fresh s ~n =
  let cur = s.cur and prev = s.prev and out = s.fresh_edges in
  if Array.length out.start < n + 1 then out.start <- Array.make (n + 1) 0;
  out.adj.len <- 0;
  for u = 0 to n - 1 do
    out.start.(u) <- out.adj.len;
    let all = degree prev u = 0 in
    s.epoch <- s.epoch + 1;
    if not all then
      for i = prev.start.(u) to prev.start.(u + 1) - 1 do
        s.stamp.(prev.adj.data.(i)) <- s.epoch
      done;
    for i = cur.start.(u) to cur.start.(u + 1) - 1 do
      let v = cur.adj.data.(i) in
      if all || s.stamp.(v) <> s.epoch then push out.adj v
    done
  done;
  out.start.(n) <- out.adj.len

(* Stamp the nodes of [dst]'s contact component with a new epoch. *)
let mark_component s ~dst =
  s.epoch <- s.epoch + 1;
  let e = s.epoch and cur = s.cur in
  if degree cur dst > 0 then begin
    s.component.(dst) <- e;
    s.queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let x = s.queue.(!head) in
      incr head;
      for i = cur.start.(x) to cur.start.(x + 1) - 1 do
        let y = cur.adj.data.(i) in
        if s.component.(y) <> e then begin
          s.component.(y) <- e;
          s.queue.(!tail) <- y;
          incr tail
        end
      done
    done
  end;
  e

(* ------------------------------------------------------------------ *)
(* One run                                                            *)

type state = {
  s : scratch;
  grid : Timegrid.t;
  dst : int;
  k : int;
  hop_cap : int;
  budget : int;
  t_create : float;
  exhaustive : bool;  (* every contact counts as fresh *)
  mutable step : int;
  mutable in_component : int;  (* epoch stamped on dst's component this step *)
  mutable this_step : int;  (* arrivals recorded this step *)
  mutable n_arrivals : int;
  mutable stop : bool;  (* a stop threshold fired *)
  mutable emitted : arrival list;  (* newest first *)
}

let arrival_of st slot =
  let s = st.s and step = st.step in
  let rec hops slot acc =
    if slot < 0 then acc
    else
      hops (get s.parent slot) ({ Path.node = get s.last slot; step = get s.born slot } :: acc)
  in
  let time = Timegrid.time_of_step st.grid step in
  {
    path = Path.of_hops (hops slot [ { Path.node = st.dst; step } ]);
    step;
    time;
    duration = time -. st.t_create;
  }

(* Expand one path along this step's contacts: an edge into the
   destination is an arrival; any other edge [u -> v] yields a new path
   when it keeps the path loop-free and its hop count within
   [limit.(v)]. Paths still new, or held inside the destination's
   component, use every edge; the rest only edges new this step. *)
let[@psn.hot] expand st slot =
  let s = st.s in
  let u = get s.last slot and h = get s.hops slot in
  let edges =
    if
      st.exhaustive
      || get s.born slot >= st.step - 1
      || s.component.(u) = st.in_component
    then s.cur
    else s.fresh_edges
  in
  for i = edges.start.(u) to edges.start.(u + 1) - 1 do
    if not st.stop then begin
      let v = edges.adj.data.(i) in
      if v = st.dst then begin
        if st.this_step < st.k && st.n_arrivals < st.budget then begin
          st.emitted <- (arrival_of st slot :: st.emitted) [@lint.allow "hot-path-alloc"];
          st.this_step <- st.this_step + 1;
          st.n_arrivals <- st.n_arrivals + 1
        end;
        if st.this_step >= st.k || st.n_arrivals >= st.budget then st.stop <- true
      end
      else begin
        if h + 1 <= s.limit.(v) && not (visited s slot v) then begin
          let q = append s ~parent:slot ~node:v ~step:st.step in
          let fresh = s.fresh.(v) in
          if fresh.len = 0 then push s.touched v;
          push fresh q;
          if fresh.len = st.k then s.limit.(v) <- 0;
          push s.buckets.(h + 1) q
        end
      end
    end
  done

(* Drain the buckets in ascending hop order, so a node's candidates
   arrive shortest first and the per-node k cut is exact. A new path
   at [v] must stay within the hop cap and rank in [v]'s top k against
   the start-of-step table: no more hops than its k-th path, since on
   a tie the retained path stays ahead. [expand] zeroes the limit once
   [v] has taken k new paths this step. *)
let[@psn.hot] drain st ~n =
  let s = st.s in
  for v = 0 to n - 1 do
    let table = s.table.(v) in
    s.limit.(v) <-
      (if table.len < st.k then st.hop_cap
       else Int.min st.hop_cap (get s.hops table.data.(st.k - 1)))
  done;
  for h = 1 to n do
    let bucket = s.buckets.(h) in
    while (not st.stop) && bucket.len > 0 do
      bucket.len <- bucket.len - 1;
      expand st bucket.data.(bucket.len)
    done
  done

(* Queue every retained path that can still produce a new extension or
   delivery this step; returns whether any was queued. Outside the
   destination's component and away from fresh edges only paths born
   last step qualify, and a table that took no paths last step holds
   none. *)
let seed st ~n =
  let s = st.s in
  let any = ref false in
  for u = 0 to n - 1 do
    let table = s.table.(u) in
    if u <> st.dst && table.len > 0 && degree s.cur u > 0 then begin
      let all =
        st.exhaustive || degree s.fresh_edges u > 0 || s.component.(u) = st.in_component
      in
      if all || s.merged.(u) >= st.step - 1 then
        for i = 0 to table.len - 1 do
          let slot = table.data.(i) in
          if all || get s.born slot >= st.step - 1 then begin
            any := true;
            push s.buckets.(get s.hops slot) slot
          end
        done
    end
  done;
  !any

let rec meets_mask s base i =
  i < s.words && (get s.bits (base + i) land s.mask.(i) <> 0 || meets_mask s base (i + 1))

(* Keep the slots of [v] that visited no contact of the destination. *)
let filter s v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let slot = v.data.(i) in
    if not (meets_mask s (slot * s.words) 0) then begin
      v.data.(!j) <- slot;
      incr j
    end
  done;
  let dropped = v.len - !j in
  v.len <- !j;
  dropped

(* First preference is retrospective: once a node meets the
   destination, every path that ever passed through it (and was thus
   deliverable at this step at the latest) may not produce later
   deliveries. Drop every path whose visited set meets this step's
   destination contacts, retained and new alike; their same-step
   deliveries were already emitted. Returns the retained paths
   dropped. *)
let first_preference s ~n ~dst =
  let cur = s.cur in
  Array.fill s.mask 0 (Array.length s.mask) 0;
  for i = cur.start.(dst) to cur.start.(dst + 1) - 1 do
    let v = cur.adj.data.(i) in
    s.mask.(word_of v) <- s.mask.(word_of v) lor bit_of v
  done;
  let dropped = ref 0 in
  for w = 0 to n - 1 do
    dropped := !dropped + filter s s.table.(w)
  done;
  for i = 0 to s.touched.len - 1 do
    ignore (filter s s.fresh.(s.touched.data.(i)) : int)
  done;
  !dropped

(* Merge each touched node's new paths into its table, keeping the
   first [k] by hop count; on a tie the retained path stays ahead.
   Returns the net change in retained paths. *)
let merge s ~k ~step =
  let delta = ref 0 in
  for i = 0 to s.touched.len - 1 do
    let v = s.touched.data.(i) in
    let table = s.table.(v) and fresh = s.fresh.(v) in
    let total = Int.min k (table.len + fresh.len) in
    if Array.length s.spare < total then
      s.spare <- Array.make (Int.max total (2 * Array.length s.spare)) 0;
    let out = s.spare in
    let a = ref 0 and b = ref 0 in
    for j = 0 to total - 1 do
      if
        !b >= fresh.len
        || (!a < table.len && get s.hops table.data.(!a) <= get s.hops fresh.data.(!b))
      then begin
        out.(j) <- table.data.(!a);
        incr a
      end
      else begin
        out.(j) <- fresh.data.(!b);
        incr b
      end
    done;
    delta := !delta + total - table.len;
    s.spare <- table.data;
    table.data <- out;
    table.len <- total;
    fresh.len <- 0;
    s.merged.(v) <- step
  done;
  s.touched.len <- 0;
  !delta

let run ?(config = default_config) snap ~src ~dst ~t_create =
  let n = Snapshot.n_nodes snap in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Enumerate.run: node out of range";
  if src = dst then invalid_arg "Enumerate.run: src = dst";
  if config.k <= 0 then invalid_arg "Enumerate.run: k must be positive";
  let grid = Snapshot.grid snap in
  let c0 = Timegrid.step_of_time grid t_create in
  let s = Domain.DLS.get scratch_key in
  reset s ~n;
  let st =
    {
      s;
      grid;
      dst;
      k = config.k;
      hop_cap = (match config.max_hops with None -> n | Some h -> Int.min h n);
      budget = (match config.stop_at_total with None -> max_int | Some t -> t);
      t_create;
      exhaustive = config.exhaustive;
      step = c0;
      in_component = 0;
      this_step = 0;
      n_arrivals = 0;
      stop = false;
      emitted = [];
    }
  in
  push s.table.(src) (append s ~parent:(-1) ~node:src ~step:c0);
  s.merged.(src) <- c0;
  let live = ref 1 in
  if not config.exhaustive then fill_csr s.cur snap ~step:c0 ~n;
  let n_steps = Timegrid.n_steps grid in
  while (not st.stop) && !live > 0 && st.step < n_steps do
    st.step <- st.step + 1;
    let prev = s.prev in
    s.prev <- s.cur;
    s.cur <- prev;
    fill_csr s.cur snap ~step:st.step ~n;
    if not config.exhaustive then fill_fresh s ~n;
    st.in_component <- mark_component s ~dst;
    if seed st ~n then begin
      st.this_step <- 0;
      drain st ~n;
      if not st.stop then begin
        if degree s.cur dst > 0 then live := !live - first_preference s ~n ~dst;
        live := !live + merge s ~k:config.k ~step:st.step;
        if s.size > (2 * s.live_floor) + 4096 then compact s ~n
      end
    end
  done;
  {
    arrivals = Array.of_list (List.rev st.emitted);
    stopped_early = st.stop;
    steps_processed = st.step - c0;
    src;
    dst;
    t_create;
  }

let first_arrival result = if Array.length result.arrivals = 0 then None else Some result.arrivals.(0)

let arrival_times result = Array.map (fun a -> a.time) result.arrivals
