module Chord_ft = Splay_apps.Chord_ft

let app_config =
  {
    Chord_ft.default_config with
    Chord_ft.proximity_fingers = true;
    stabilize_interval = 1.0;
    rpc_timeout = 30.0;
  }
