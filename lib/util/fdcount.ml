(* File-descriptor accounting via /proc/self/fd, for the leak
   assertions of the socket chaos suite:
   count before, run the storm, count after, demand no growth. *)

let count () =
  match Sys.readdir "/proc/self/fd" with
  | entries ->
      (* the readdir itself holds one fd on the directory; exclude it so
         two back-to-back counts agree *)
      max 0 (Array.length entries - 1)
  | exception Sys_error _ -> -1

let supported () = count () >= 0

let no_growth ?(slack = 0) ~before ~after () =
  (* unknown counts (no /proc) never fail the assertion *)
  before < 0 || after < 0 || after <= before + slack
