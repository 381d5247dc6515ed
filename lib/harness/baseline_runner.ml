let rounds_for ~eps ~inputs =
  let diam = Vec.diameter inputs in
  if diam <= eps then 1
  else max 1 (int_of_float (Float.ceil (log (eps /. diam) /. log Params.conv_factor)))
