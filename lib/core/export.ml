let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then raise (Sys_error (dir ^ ": not a directory"))

(* File names are derived from user-supplied labels; keep them tame. *)
let slug s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
    s

let write_lines ~dir ~file lines =
  ensure_dir dir;
  let path = Filename.concat dir file in
  Psn_det.Atomic_file.write ~path (String.concat "" (List.map (fun line -> line ^ "\n") lines));
  path

let write_cdfs ~dir ~name cdfs =
  List.map
    (fun (label, cdf) ->
      let lines =
        ("# " ^ label)
        :: List.map (fun (x, p) -> Printf.sprintf "%g %g" x p) (Psn_stats.Cdf.points cdf)
      in
      write_lines ~dir ~file:(Printf.sprintf "%s_%s.dat" (slug name) (slug label)) lines)
    cdfs

let write_scatter ~dir ~name points =
  write_lines ~dir
    ~file:(slug name ^ ".dat")
    (List.map (fun (x, y) -> Printf.sprintf "%g %g" x y) points)

let write_histogram ~dir ~name hist =
  let counts = Psn_stats.Histogram.counts hist in
  let lines =
    Array.to_list
      (Array.mapi
         (fun i c -> Printf.sprintf "%g %d" (Psn_stats.Histogram.bin_center hist i) c)
         counts)
  in
  write_lines ~dir ~file:(slug name ^ ".dat") lines

let write_series ~dir ~name points =
  write_lines ~dir
    ~file:(slug name ^ ".dat")
    (List.map (fun (x, y) -> Printf.sprintf "%g %g" x y) points)

let style_of = function `Lines -> "lines" | `Points -> "points" | `Boxes -> "boxes"

let write_gnuplot_script ~dir plots =
  let body =
    List.concat_map
      (fun (png, style, files) ->
        let overlays =
          List.map
            (fun file ->
              Printf.sprintf "'%s' using 1:2 with %s title '%s'" (Filename.basename file)
                (style_of style)
                (Filename.remove_extension (Filename.basename file)))
            files
          |> String.concat ", "
        in
        [
          Printf.sprintf "set output '%s.png'" (slug png);
          Printf.sprintf "set title '%s'" png;
          Printf.sprintf "plot %s" overlays;
          "";
        ])
      plots
  in
  write_lines ~dir ~file:"plot_all.gp"
    ([ "set terminal pngcairo size 900,600"; "set key right bottom"; "set grid"; "" ] @ body)
