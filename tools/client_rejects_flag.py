"""Check that msulong_client rejects an unknown flag before it connects.

Usage: python3 client_rejects_flag.py PATH/TO/msulong_client

The client is pointed at a listening Unix socket that never accepts. It
must exit with exactly 2, and the socket must see no connection attempt.
"""

import os
import select
import socket
import subprocess
import sys
import tempfile


def main():
    client = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "daemon.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(8)
        try:
            rc = subprocess.run(
                [client, "--socket=" + path, "--demo=clean", "--bogus-flag"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=30).returncode
        except subprocess.TimeoutExpired:
            print("client hung: it connected and waited for a reply")
            return 1
        attempted = select.select([listener], [], [], 0)[0]
        listener.close()
    if rc != 2:
        print(f"expected exit 2, got {rc}")
        return 1
    if attempted:
        print("client connected before rejecting the flag")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
