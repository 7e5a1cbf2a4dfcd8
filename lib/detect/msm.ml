type state = Virgin | Exclusive of int | Shared_read | Shared_modified

type sensitivity = Short_running | Long_running

let transition state ~tid ~write ~ordered =
  match state with
  | Virgin -> Exclusive tid
  | Exclusive u when u = tid -> state
  | Exclusive _ ->
      if ordered then Exclusive tid
      else if write then Shared_modified
      else Shared_read
  | Shared_read -> if write then Shared_modified else Shared_read
  | Shared_modified -> Shared_modified

let sensitivity_name = function
  | Short_running -> "short-running"
  | Long_running -> "long-running"

let parse_sensitivity = function
  | "short-running" -> Ok Short_running
  | "long-running" -> Ok Long_running
  | s ->
      Error
        (Printf.sprintf "unknown sensitivity %S (short-running, long-running)" s)

let virgin = -1
let shared_read = -2
let shared_modified = -3

let transition_code s ~tid ~write ~ordered =
  if s = virgin then tid
  else if s >= 0 then
    if s = tid then s
    else if ordered then tid
    else if write then shared_modified
    else shared_read
  else if s = shared_read && not write then shared_read
  else shared_modified
