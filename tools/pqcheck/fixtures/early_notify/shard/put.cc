// Fixture: the boundary of flush-before-ack for an early notify. A put
// handler may push peer-bound frames before the frame's WAL flush --
// shipping them releases no client ack, so it carries no obligation.
// Releasing staged output at the same point would also release the
// completions, before the record they name is durable.

struct MiniWal {
    PQ_FLUSHES_WAL void flush() {
        pending_ = 0;
    }
    void append_put(int key) {
        pending_ += key;
    }
    int pending_ = 0;
};

struct MiniShard {
    MiniWal wal;

    // Peer-bound frames only; completions stay staged.
    void ship_shard_frames() {
        shipped_ += 1;
    }

    PQ_RELEASES_ACK void release_now() {
        ship_shard_frames();
        released_ += 1;
    }

    void fan_out(int key) {
        applied_ += key;
    }

    // OK: the notify leaves before the local fan-out and the WAL flush.
    void handle_put_early(int key) {
        ship_shard_frames();
        fan_out(key);
        wal.append_put(key);
    }

    // BAD: the same early point, but through the ack releaser.
    void handle_put_release(int key) {
        release_now();  // pqcheck-expect: flush-before-ack
        fan_out(key);
        wal.append_put(key);
    }

    void apply_frame(int key) {
        handle_put_early(key);
        wal.flush();
        release_now();
    }

    int shipped_ = 0;
    int released_ = 0;
    int applied_ = 0;
};
