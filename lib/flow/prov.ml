type step =
  | Stask of {
      st_name : string;
      st_kind : string;
      st_scope : string;
      st_dynamic : bool;
    }
  | Sbranch of {
      sb_name : string;
      sb_taken : string;
      sb_alternatives : string list;
      sb_chosen : string list;
      sb_reasons : string list;
    }
  | Sdse of {
      sd_tag : string;
      sd_points : int;
      sd_best : string;
    }
  | Sfailed of {
      sf_task : string;
      sf_class : string;
      sf_attempts : int;
      sf_msg : string;
    }

let render steps =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iteri
    (fun i step ->
      match step with
      | Stask s ->
        line "%2d. task   %s [%s%s] scope=%s" (i + 1) s.st_name s.st_kind
          (if s.st_dynamic then ", dyn" else "")
          s.st_scope
      | Sbranch b ->
        line "%2d. branch %s -> %s (offered: %s; selected: %s)" (i + 1) b.sb_name
          b.sb_taken
          (String.concat ", " b.sb_alternatives)
          (String.concat ", " b.sb_chosen);
        List.iter (fun r -> line "      - %s" r) b.sb_reasons
      | Sdse d -> line "%2d. dse    %s: %d points -> %s" (i + 1) d.sd_tag d.sd_points d.sd_best
      | Sfailed f ->
        line "%2d. failed %s (%s after %d attempt%s) — branch pruned" (i + 1)
          f.sf_task f.sf_class f.sf_attempts
          (if f.sf_attempts = 1 then "" else "s");
        line "      ! %s" f.sf_msg)
    steps;
  Buffer.contents buf
