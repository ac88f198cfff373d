type entry = {
  e_status : int;
  e_ctype : string;
  e_body : string;
  e_etag : string;
}

(* intrusive doubly-linked LRU list over the table's nodes; c_head is
   the most recently used end, c_tail the eviction end *)
type node = {
  n_key : string;
  n_entry : entry;
  n_size : int;
  mutable n_prev : node option;
  mutable n_next : node option;
}

(* a fill in progress: concurrent misses on its key wait for [f_result]
   instead of rendering the same response again *)
type flight = {
  f_cond : Condition.t;
  mutable f_result : (entry, exn * Printexc.raw_backtrace) result option;
}

type t = {
  c_mutex : Mutex.t;
  c_tbl : (string, node) Hashtbl.t;
  c_flights : (string, flight) Hashtbl.t;
  c_max_entries : int;
  c_max_bytes : int;
  mutable c_bytes : int;
  mutable c_head : node option;
  mutable c_tail : node option;
}

let create ?(max_entries = 512) ?(max_bytes = 64 * 1024 * 1024) () =
  if max_entries < 1 || max_bytes < 1 then invalid_arg "Respcache.create";
  {
    c_mutex = Mutex.create ();
    c_tbl = Hashtbl.create 64;
    c_flights = Hashtbl.create 8;
    c_max_entries = max_entries;
    c_max_bytes = max_bytes;
    c_bytes = 0;
    c_head = None;
    c_tail = None;
  }

let entry_size key e =
  (* body dominates; the constant covers node + table slot overhead *)
  String.length e.e_body + String.length e.e_ctype + String.length e.e_etag
  + String.length key + 128

let unlink t n =
  (match n.n_prev with Some p -> p.n_next <- n.n_next | None -> t.c_head <- n.n_next);
  (match n.n_next with Some s -> s.n_prev <- n.n_prev | None -> t.c_tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.c_head;
  (match t.c_head with Some h -> h.n_prev <- Some n | None -> t.c_tail <- Some n);
  t.c_head <- Some n

(* caller holds the mutex *)
let lookup t key =
  match Hashtbl.find_opt t.c_tbl key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.n_entry

let evict_tail t =
  match t.c_tail with
  | None -> false
  | Some n ->
      unlink t n;
      Hashtbl.remove t.c_tbl n.n_key;
      t.c_bytes <- t.c_bytes - n.n_size;
      true

(* caller holds the mutex *)
let insert t key entry =
  let size = entry_size key entry in
  if size > t.c_max_bytes then 0
  else begin
    (match Hashtbl.find_opt t.c_tbl key with
    | Some old ->
        unlink t old;
        Hashtbl.remove t.c_tbl key;
        t.c_bytes <- t.c_bytes - old.n_size
    | None -> ());
    let n = { n_key = key; n_entry = entry; n_size = size; n_prev = None; n_next = None } in
    Hashtbl.replace t.c_tbl key n;
    push_front t n;
    t.c_bytes <- t.c_bytes + size;
    let evicted = ref 0 in
    while
      (Hashtbl.length t.c_tbl > t.c_max_entries || t.c_bytes > t.c_max_bytes)
      && Hashtbl.length t.c_tbl > 1
      && evict_tail t
    do
      incr evicted
    done;
    !evicted
  end

let result = function Ok e -> e | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt

let find_or_fill t key fill =
  Mutex.lock t.c_mutex;
  match (lookup t key, Hashtbl.find_opt t.c_flights key) with
  | Some e, _ ->
      Mutex.unlock t.c_mutex;
      `Hit e
  | None, Some fl ->
      while Option.is_none fl.f_result do
        Condition.wait fl.f_cond t.c_mutex
      done;
      Mutex.unlock t.c_mutex;
      `Miss (result (Option.get fl.f_result), 0)
  | None, None ->
      let fl = { f_cond = Condition.create (); f_result = None } in
      Hashtbl.replace t.c_flights key fl;
      Mutex.unlock t.c_mutex;
      let r = try Ok (fill ()) with exn -> Error (exn, Printexc.get_raw_backtrace ()) in
      Mutex.lock t.c_mutex;
      let evicted = match r with Ok e when e.e_status = 200 -> insert t key e | _ -> 0 in
      Hashtbl.remove t.c_flights key;
      fl.f_result <- Some r;
      Condition.broadcast fl.f_cond;
      Mutex.unlock t.c_mutex;
      `Miss (result r, evicted)

let stats t = Mutex.protect t.c_mutex (fun () -> (Hashtbl.length t.c_tbl, t.c_bytes))
