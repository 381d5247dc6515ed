(* Hash-consing of received message payloads into dense small-int ids.

   One table lives in each party (see Party); every payload a party
   receives is interned exactly once at receipt, so the n² reliable
   broadcast instances of an iteration that all carry the same value (or
   the same Ppairs report — the largest payloads on the wire) share one
   id, one canonical representative, and from then on compare by [=] on
   ints instead of [Stdlib.compare] over float vectors.

   Hash and equality are structural but specialized per constructor —
   vectors by their float-array bits via [Vec.hash]/[Vec.equal_exact] —
   so no polymorphic comparison or hashing runs anywhere on the hot
   path. The equality is exactly the relation of [Stdlib.compare] = 0 on
   payloads (Float.compare per coordinate), which is what the reference
   PayloadMap keyed on; interned ids therefore partition payloads the
   same way the reference vote maps did. *)

type entry = { hash : int; id : int }

type t = {
  mutable buckets : entry list array;  (* hash-indexed chains *)
  mutable payloads : Message.payload array;  (* id -> canonical payload *)
  mutable count : int;
  fixed : bool;  (* never grow: test hook to force collision chains *)
  (* 1-entry physical-equality memo: a broadcast fans the same payload
     block out to every receiver, and re-broadcasts carry the canonical
     representative, so most receipts are [==] to the previous one —
     phys-equal implies structurally equal, so skipping the hash is
     sound. [last_id] is -1 while empty. *)
  mutable last_p : Message.payload;
  mutable last_id : int;
  (* lookup accounting: a hit finds an existing id (memo or bucket), a
     miss allocates a fresh one. Exposed through Runner.result. *)
  mutable hits : int;
  mutable misses : int;
}

let hash_int_list l =
  List.fold_left (fun h p -> ((h * 0x01000193) lxor p) land max_int) 0x2f0e1 l

let hash_vec v = Vec.hash v lxor 0x11

let hash_payload = function
  | Message.Pvec v -> hash_vec v
  | Message.Ppairs ps ->
      List.fold_left
        (fun h (p, v) ->
          (((h * 0x01000193) lxor p lxor Vec.hash v) land max_int))
        0x22 ps
  | Message.Pint i -> (i lxor 0x33) land max_int
  | Message.Pparties ps -> hash_int_list ps lxor 0x44

let equal_payload a b =
  match (a, b) with
  | Message.Pvec u, Message.Pvec v -> Vec.equal_exact u v
  | Message.Ppairs us, Message.Ppairs vs ->
      List.compare_lengths us vs = 0
      && List.for_all2
           (fun (p, u) (q, v) -> p = q && Vec.equal_exact u v)
           us vs
  | Message.Pint i, Message.Pint j -> i = j
  | Message.Pparties us, Message.Pparties vs ->
      List.compare_lengths us vs = 0 && List.for_all2 ( = ) us vs
  | _ -> false

let dummy = Message.Pint 0

let create ?(initial_size = 64) ?(fixed = false) () =
  let size = max 1 initial_size in
  (* non-fixed tables index buckets by mask, so round up to a power of 2 *)
  let size =
    if fixed then size
    else begin
      let p = ref 1 in
      while !p < size do
        p := !p * 2
      done;
      !p
    end
  in
  {
    buckets = Array.make size [];
    payloads = Array.make (max 8 size) dummy;
    count = 0;
    fixed;
    last_p = dummy;
    last_id = -1;
    hits = 0;
    misses = 0;
  }

let count t = t.count
let hits t = t.hits
let misses t = t.misses

let rehash t =
  let size = 2 * Array.length t.buckets in
  let buckets = Array.make size [] in
  Array.iter
    (List.iter (fun e ->
         let b = e.hash land (size - 1) in
         buckets.(b) <- e :: buckets.(b)))
    t.buckets;
  t.buckets <- buckets

(* Bucket index: when the bucket count is a power of two this is a mask;
   a [fixed] table may have any size, so use mod there. *)
let bucket_of t h =
  let size = Array.length t.buckets in
  if t.fixed then h mod size else h land (size - 1)

let payload t id =
  if id < 0 || id >= t.count then invalid_arg "Intern.payload: bad id";
  t.payloads.(id)

(* The id of the entry for payload [p] (hash [h]) in a bucket chain, -1
   when absent. *)
let rec find t h p = function
  | [] -> -1
  | e :: rest ->
      if e.hash = h && equal_payload t.payloads.(e.id) p then e.id
      else find t h p rest

(* [find] specialised to [Pvec v], so the probe needs no box. *)
let rec find_vec t h v = function
  | [] -> -1
  | e :: rest -> (
      match t.payloads.(e.id) with
      | Message.Pvec u when e.hash = h && Vec.equal_exact u v -> e.id
      | _ -> find_vec t h v rest)

(* The two outcomes of a chain walk: a hit, or a miss that stores [p]
   under a fresh id in bucket [b] (hash [h]). *)
let hit t id =
  t.hits <- t.hits + 1;
  id

let fresh t h b p =
  t.misses <- t.misses + 1;
  let id = t.count in
  if id = Array.length t.payloads then begin
    let bigger = Array.make (2 * id) dummy in
    Array.blit t.payloads 0 bigger 0 id;
    t.payloads <- bigger
  end;
  t.payloads.(id) <- p;
  t.count <- id + 1;
  t.buckets.(b) <- { hash = h; id } :: t.buckets.(b);
  if (not t.fixed) && t.count > 2 * Array.length t.buckets then rehash t;
  id

let memo t p id =
  t.last_p <- p;
  t.last_id <- id;
  id

let intern t p =
  if t.last_id >= 0 && p == t.last_p then hit t t.last_id
  else begin
    let h = hash_payload p in
    let b = bucket_of t h in
    let id = find t h p t.buckets.(b) in
    memo t p (if id >= 0 then hit t id else fresh t h b p)
  end

(* [intern t (Pvec v)] without the box: the memo matches on the vector,
   and a [Pvec] is built only when [v] is new. *)
let intern_vec t v =
  match t.last_p with
  | Message.Pvec u when t.last_id >= 0 && u == v -> hit t t.last_id
  | _ ->
      let h = hash_vec v in
      let b = bucket_of t h in
      let id = find_vec t h v t.buckets.(b) in
      let id = if id >= 0 then hit t id else fresh t h b (Message.Pvec v) in
      memo t t.payloads.(id) id

let intern_payload t p = payload t (intern t p)

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  Array.fill t.payloads 0 (Array.length t.payloads) dummy;
  t.count <- 0;
  t.last_p <- dummy;
  t.last_id <- -1;
  t.hits <- 0;
  t.misses <- 0
