void Report();  // reports through obs metrics and spans
