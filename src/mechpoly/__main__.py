from mechpoly.cli import main

raise SystemExit(main())
