(* Binary min-heap over int keys. The heap-ordered arrays hold only
   immediate ints — the packed key and a slab slot — so a sift is pure
   integer traffic that never runs the write barrier, and it moves a hole
   instead of swapping. Each payload and its [aux] rider sit in slab
   arrays indexed by slot: written once on push, read once on pop. Popped
   slots are recycled through a stack, so the slab never outgrows the
   peak queue size. *)
module Keyed = struct
  type 'a t = {
    mutable keys : int array;  (* heap order *)
    mutable slots : int array;  (* heap order: slab slot of each key *)
    mutable data : 'a array;  (* slab *)
    mutable aux : int array;  (* slab *)
    mutable free : int array;  (* stack of recycled slab slots *)
    mutable nfree : int;
    mutable size : int;
  }

  (* Slots in use = [size]; slots ever handed out = [size + nfree], so
     with an empty free stack the next fresh slot is [size]. *)
  let create () =
    {
      keys = [||];
      slots = [||];
      data = [||];
      aux = [||];
      free = [||];
      nfree = 0;
      size = 0;
    }

  let is_empty t = t.size = 0
  let size t = t.size

  (* Only called when [size] = capacity, hence with an empty free stack:
     every slab slot below [size] is live and nothing else is. *)
  let grow t x =
    let cap = Array.length t.keys in
    let ncap = max 16 (2 * cap) in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.keys <- extend t.keys 0;
    t.slots <- extend t.slots 0;
    t.aux <- extend t.aux 0;
    t.data <- extend t.data x;
    t.free <- Array.make ncap 0

  (* Moves the hole at position [i] up until [key] fits, then fills it
     with [(key, slot)]. *)
  let sift_up (keys : int array) (slots : int array) i key slot =
    let i = ref i in
    while !i > 0 && key < keys.((!i - 1) lsr 1) do
      let p = (!i - 1) lsr 1 in
      keys.(!i) <- keys.(p);
      slots.(!i) <- slots.(p);
      i := p
    done;
    keys.(!i) <- key;
    slots.(!i) <- slot

  let push t ~key ~aux x =
    if t.size = Array.length t.keys then grow t x;
    let slot =
      if t.nfree > 0 then begin
        t.nfree <- t.nfree - 1;
        t.free.(t.nfree)
      end
      else t.size
    in
    t.data.(slot) <- x;
    t.aux.(slot) <- aux;
    sift_up t.keys t.slots t.size key slot;
    t.size <- t.size + 1

  let min_key_exn t =
    if t.size = 0 then invalid_arg "Heap.Keyed.min_key_exn: empty heap";
    t.keys.(0)

  let min_aux_exn t =
    if t.size = 0 then invalid_arg "Heap.Keyed.min_aux_exn: empty heap";
    t.aux.(t.slots.(0))

  (* Refills the root's hole with the last entry [(key, slot)], over the
     first [n] positions. Bottom-up: walk the hole down along the smaller
     children to a leaf (one comparison per level), then sift [key] back
     up from there — it came from the bottom, so it rarely climbs far. *)
  let sift_down (keys : int array) (slots : int array) n key slot =
    let i = ref 0 and l = ref 1 in
    while !l < n do
      let c = if !l + 1 < n && keys.(!l + 1) < keys.(!l) then !l + 1 else !l in
      keys.(!i) <- keys.(c);
      slots.(!i) <- slots.(c);
      i := c;
      l := (2 * c) + 1
    done;
    sift_up keys slots !i key slot

  let pop_exn t =
    if t.size = 0 then invalid_arg "Heap.Keyed.pop_exn: empty heap";
    let slot = t.slots.(0) in
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1;
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then sift_down t.keys t.slots n t.keys.(n) t.slots.(n);
    t.data.(slot)

  let iter t f =
    for i = 0 to t.size - 1 do
      let s = t.slots.(i) in
      f ~key:t.keys.(i) ~aux:t.aux.(s) t.data.(s)
    done
end
