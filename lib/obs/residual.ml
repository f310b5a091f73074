module Json = Tiles_util.Json

type entry = {
  label : string;
  source : string;
  field : string;
  predicted : float;
  observed : float;
}

let of_fields ~label ~source ~observed fields =
  List.filter_map
    (fun (field, predicted) ->
      Option.map
        (fun observed -> { label; source; field; predicted; observed })
        (List.assoc_opt field observed))
    fields

let rel_error e =
  if e.observed <> 0. then (e.predicted -. e.observed) /. e.observed
  else if e.predicted = 0. then 0.
  else if e.predicted > 0. then infinity
  else neg_infinity

type calibration = {
  source : string;
  count : int;
  mean_abs_rel : float;
  mean_rel : float;
  max_abs_rel : float;
}

let calibrate (entries : entry list) =
  let sources =
    List.fold_left
      (fun acc (e : entry) ->
        if List.mem e.source acc then acc else e.source :: acc)
      [] entries
    |> List.rev
  in
  List.map
    (fun source ->
      let es = List.filter (fun (e : entry) -> e.source = source) entries in
      let n = float_of_int (List.length es) in
      let sum (f : entry -> float) = List.fold_left (fun a e -> a +. f e) 0. es in
      {
        source;
        count = List.length es;
        mean_abs_rel = sum (fun e -> Float.abs (rel_error e)) /. n;
        mean_rel = sum rel_error /. n;
        max_abs_rel =
          List.fold_left (fun a e -> Float.max a (Float.abs (rel_error e))) 0. es;
      })
    sources

let entry_json e =
  Json.Obj
    [
      ("label", Json.Str e.label);
      ("source", Json.Str e.source);
      ("field", Json.Str e.field);
      ("predicted", Json.Float e.predicted);
      ("observed", Json.Float e.observed);
      ("rel_error", Json.Float (rel_error e));
    ]

let calibration_json c =
  Json.Obj
    [
      ("source", Json.Str c.source);
      ("count", Json.Int c.count);
      ("mean_abs_rel_error", Json.Float c.mean_abs_rel);
      ("mean_rel_error", Json.Float c.mean_rel);
      ("max_abs_rel_error", Json.Float c.max_abs_rel);
    ]

let to_json entries =
  Json.Obj
    [
      ("entries", Json.List (List.map entry_json entries));
      ("calibration", Json.List (List.map calibration_json (calibrate entries)));
    ]

let report entries =
  let buf = Buffer.create 256 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%-28s %-18s %-18s %12s %12s %8s\n" "config" "source" "field" "predicted"
    "observed" "err";
  List.iter
    (fun e ->
      pf "%-28s %-18s %-18s %12.6g %12.6g %+7.1f%%\n" e.label e.source e.field
        e.predicted e.observed
        (100. *. rel_error e))
    entries;
  pf "calibration (per source):\n";
  List.iter
    (fun c ->
      pf "  %-18s n=%-3d mean |err| %6.1f%%  bias %+6.1f%%  max |err| %6.1f%%\n"
        c.source c.count
        (100. *. c.mean_abs_rel)
        (100. *. c.mean_rel)
        (100. *. c.max_abs_rel))
    (calibrate entries);
  Buffer.contents buf
