"""VSFTP-mini: miniature vsftpd.

Paper traits reproduced:

* structure-based mapping (parseconf.c-style bool/int/str tables);
* the highest crash count of the open-source systems (Table 5a);
* the most control dependencies (Table 11: 68) and the dominant
  silent-ignorance column, including Figure 7(e):
  ``virtual_use_local_privs`` has no effect under
  ``one_process_mode=yes``;
* the listen/listen_ipv6 false dependency filtered by MAY-belief
  (§2.2.4);
* ``atoi`` everywhere (Table 8: 20 parameters behind unsafe APIs).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_semantic,
)
from repro.inject.ar import KeyValueDialect
from repro.systems.base import (
    SAME_AS_NAME,
    FunctionalTest,
    ParamSpec,
    SubjectSystem,
)
from repro.systems.registry import register

VSFTPD_MAIN = r"""
// vsftpd-mini
int listen_ipv4 = 1;
int listen_ipv6 = 0;
int listen_port = 21;
int max_clients = 0;
int max_per_ip = 0;
int anonymous_enable = 1;
int anon_upload_enable = 0;
int anon_mkdir_write_enable = 0;
int anon_max_rate = 0;
int local_enable = 0;
int write_enable = 0;
int chroot_local_user = 0;
int virtual_use_local_privs = 0;
int one_process_mode = 0;
int ssl_enable = 0;
int ssl_tlsv1 = 1;
int require_ssl_reuse = 1;
int idle_session_timeout = 300;
int data_connection_timeout = 300;
int accept_timeout = 60;
int connect_timeout = 60;
int trans_chunk_size = 8192;
int delay_failed_login = 1;
char *ftp_username = "ftp";
char *banner_file = "";
char *local_root = "";

int per_ip_table[64];

struct conf_bool { char *name; int *var; };
struct conf_int { char *name; int *var; };
struct conf_str { char *name; char **var; };

struct conf_bool bool_table[] = {
    { "listen", &listen_ipv4 },
    { "listen_ipv6", &listen_ipv6 },
    { "anonymous_enable", &anonymous_enable },
    { "anon_upload_enable", &anon_upload_enable },
    { "anon_mkdir_write_enable", &anon_mkdir_write_enable },
    { "local_enable", &local_enable },
    { "write_enable", &write_enable },
    { "chroot_local_user", &chroot_local_user },
    { "virtual_use_local_privs", &virtual_use_local_privs },
    { "one_process_mode", &one_process_mode },
    { "ssl_enable", &ssl_enable },
    { "ssl_tlsv1", &ssl_tlsv1 },
    { "require_ssl_reuse", &require_ssl_reuse },
    { "delay_failed_login", &delay_failed_login },
};

struct conf_int int_table[] = {
    { "listen_port", &listen_port },
    { "max_clients", &max_clients },
    { "max_per_ip", &max_per_ip },
    { "anon_max_rate", &anon_max_rate },
    { "idle_session_timeout", &idle_session_timeout },
    { "data_connection_timeout", &data_connection_timeout },
    { "accept_timeout", &accept_timeout },
    { "connect_timeout", &connect_timeout },
    { "trans_chunk_size", &trans_chunk_size },
};

struct conf_str str_table[] = {
    { "ftp_username", &ftp_username },
    { "banner_file", &banner_file },
    { "local_root", &local_root },
};

int parse_bool_setting(char *value) {
    // vsftpd accepts YES/NO case-insensitively (and 1/0).
    if (strcasecmp(value, "yes") == 0) { return 1; }
    if (strcasecmp(value, "true") == 0) { return 1; }
    if (strcmp(value, "1") == 0) { return 1; }
    if (strcasecmp(value, "no") == 0) { return 0; }
    if (strcasecmp(value, "false") == 0) { return 0; }
    if (strcmp(value, "0") == 0) { return 0; }
    fprintf(stderr, "500 OOPS: bad bool value in config file: %s\n", value);
    exit(1);
    return 0;
}

int apply_bool_setting(char *key, char *value) {
    int i;
    for (i = 0; i < 14; i++) {
        if (strcasecmp(key, bool_table[i].name) == 0) {
            *bool_table[i].var = parse_bool_setting(value);
            return 1;
        }
    }
    return 0;
}

int apply_int_setting(char *key, char *value) {
    int i;
    for (i = 0; i < 9; i++) {
        if (strcasecmp(key, int_table[i].name) == 0) {
            // atoi: garbage parses as 0, overflow wraps (unsafe API).
            *int_table[i].var = atoi(value);
            return 1;
        }
    }
    return 0;
}

int apply_str_setting(char *key, char *value) {
    int i;
    for (i = 0; i < 3; i++) {
        if (strcasecmp(key, str_table[i].name) == 0) {
            *str_table[i].var = value;
            return 1;
        }
    }
    return 0;
}

int apply_setting(char *key, char *value) {
    if (apply_bool_setting(key, value)) { return 0; }
    if (apply_int_setting(key, value)) { return 0; }
    if (apply_str_setting(key, value)) { return 0; }
    fprintf(stderr, "500 OOPS: unrecognised variable in config file: %s\n", key);
    exit(1);
    return 0;
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "500 OOPS: cannot open config file: %s\n", path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *eq = strchr(trimmed, '=');
            if (eq != NULL) {
                int pos = strlen(trimmed) - strlen(eq);
                char *key = str_trim(str_substr(trimmed, 0, pos));
                char *value = str_trim(eq + 1);
                apply_setting(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int init_network() {
    int fd;
    if (listen_ipv4 != 0) {
        fd = socket(2, 1, 0);
        if (bind(fd, listen_port) != 0) {
            return 1;  // silent: no message names the port
        }
        listen(fd, 32);
    }
    if (listen_ipv6 != 0) {
        fd = socket(10, 1, 0);
        if (bind(fd, listen_port) != 0) {
            return 1;
        }
        listen(fd, 32);
    }
    return 0;
}

int sanitize_limits() {
    // Undocumented clamps (Table 8's undocumented data ranges).
    if (max_clients < 0) {
        max_clients = 0;
    }
    if (max_per_ip < 0) {
        max_per_ip = 0;
    }
    return 0;
}

int init_session_tables() {
    // Hard-coded 64-entry per-IP table; max_per_ip beyond it corrupts
    // memory with no check (crash under extreme values).
    int i;
    for (i = 0; i < max_per_ip; i++) {
        per_ip_table[i] = 0;
    }
    return 0;
}

int check_users() {
    if (getpwnam(ftp_username) == NULL) {
        fprintf(stderr, "500 OOPS: cannot locate user specified in "
                "ftp_username: %s\n", ftp_username);
        exit(1);
    }
    if (strlen(banner_file) > 0) {
        void *fp = fopen(banner_file, "r");
        if (fp == NULL) {
            return 1;  // silent early termination
        }
        fclose(fp);
    }
    return 0;
}

int session_timers() {
    int idle = idle_session_timeout;
    if (idle > 2) { idle = 2; }
    sleep(idle);
    int dconn = data_connection_timeout;
    if (dconn > 2) { dconn = 2; }
    sleep(dconn);
    int conn = connect_timeout;
    if (conn > 2) { conn = 2; }
    sleep(conn);
    char *chunk_buf = malloc(trans_chunk_size);
    return 0;
}

int wait_for_connection() {
    // accept_timeout bounds the accept() wait; an absurd value makes
    // startup appear hung (uncapped on purpose).
    if (accept_timeout > 0) {
        sleep(accept_timeout / 20);
    }
    return 0;
}

int transfer_delay(int bytes) {
    // Chunk accounting happens for every transfer: a zero chunk size
    // divides by zero (SIGFPE) with no message.
    int chunks = bytes / trans_chunk_size;
    if (anon_max_rate > 0) {
        return chunks;
    }
    return 0;
}

int handle_login(char *user) {
    if (strcmp(user, "anonymous") == 0) {
        if (anonymous_enable == 0) {
            send_response("530 Anonymous access denied");
            return 1;
        }
        send_response("230 Anonymous login ok");
        return 0;
    }
    if (local_enable == 0) {
        send_response("530 Local logins disabled");
        return 1;
    }
    if (one_process_mode == 0) {
        // Figure 7(e): virtual_use_local_privs is consulted only
        // outside one_process_mode; otherwise silently ignored.
        if (virtual_use_local_privs != 0) {
            send_response("230 Local login ok (virtual privs)");
            return 0;
        }
    }
    if (chroot_local_user != 0) {
        if (strlen(local_root) > 0) {
            if (!is_directory(local_root)) {
                send_response("530 Login incorrect");
                return 1;
            }
        }
    }
    send_response("230 Local login ok");
    return 0;
}

int handle_store(char *path) {
    if (write_enable == 0) {
        send_response("550 Permission denied");
        return 1;
    }
    if (anon_upload_enable == 0) {
        send_response("550 Anonymous uploads disabled");
        return 1;
    }
    transfer_delay(65536);
    send_response(sprintf("226 Stored %s", path));
    return 0;
}

int handle_retrieve(char *path) {
    transfer_delay(65536);
    send_response(sprintf("226 Sent %s", path));
    return 0;
}

int handle_ssl_probe() {
    if (ssl_enable != 0) {
        if (ssl_tlsv1 != 0) {
            send_response("234 TLSv1 ok");
            return 0;
        }
        if (require_ssl_reuse != 0) {
            send_response("234 TLS session reuse required");
            return 0;
        }
        send_response("234 TLS ok");
        return 0;
    }
    send_response("530 TLS not enabled");
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "USER ", 5) == 0) {
            handle_login(req + 5);
        } else if (strncmp(req, "STOR ", 5) == 0) {
            handle_store(req + 5);
        } else if (strncmp(req, "RETR ", 5) == 0) {
            handle_retrieve(req + 5);
        } else if (strcmp(req, "AUTH TLS") == 0) {
            handle_ssl_probe();
        } else if (strcmp(req, "NOOP") == 0) {
            send_response("200 NOOP ok");
        } else {
            send_response("500 Unknown command");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: vsftpd <config>\n");
        return 2;
    }
    read_config(argv[1]);
    sanitize_limits();
    if (init_network() != 0) {
        return 1;
    }
    init_session_tables();
    if (check_users() != 0) {
        return 1;
    }
    session_timers();
    wait_for_connection();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = bool_table
  @PAR = [conf_bool, 1]
  @VAR = [conf_bool, 2] }
{ @STRUCT = int_table
  @PAR = [conf_int, 1]
  @VAR = [conf_int, 2] }
{ @STRUCT = str_table
  @PAR = [conf_str, 1]
  @VAR = [conf_str, 2] }
"""

DEFAULT_CONFIG = """\
# vsftpd-mini configuration
listen=YES
listen_ipv6=NO
listen_port=21
max_clients=0
max_per_ip=4
anonymous_enable=YES
anon_upload_enable=NO
anon_mkdir_write_enable=NO
anon_max_rate=0
local_enable=YES
write_enable=NO
chroot_local_user=NO
virtual_use_local_privs=NO
one_process_mode=NO
ssl_enable=NO
ssl_tlsv1=YES
require_ssl_reuse=YES
idle_session_timeout=300
data_connection_timeout=300
accept_timeout=60
connect_timeout=60
trans_chunk_size=8192
delay_failed_login=1
ftp_username=ftp
banner_file=
local_root=
"""

MANUAL = {
    "listen": "listen YES|NO: run in standalone IPv4 mode.",
    "listen_ipv6": "listen_ipv6 YES|NO: run in standalone IPv6 mode.",
    "listen_port": "listen_port <port>: the listening port.",
    "max_clients": "max_clients <n>: maximum concurrent clients.",
    "max_per_ip": "max_per_ip <n>: maximum sessions per source address.",
    "anonymous_enable": "anonymous_enable YES|NO.",
    "anon_upload_enable": (
        "anon_upload_enable YES|NO. Requires write_enable=YES."
    ),
    "local_enable": "local_enable YES|NO.",
    "write_enable": "write_enable YES|NO.",
    "ssl_enable": "ssl_enable YES|NO.",
    "ssl_tlsv1": "ssl_tlsv1 YES|NO. Only relevant with ssl_enable.",
    "idle_session_timeout": "idle_session_timeout <seconds>.",
    "data_connection_timeout": "data_connection_timeout <seconds>.",
    "accept_timeout": "accept_timeout <seconds>.",
    "connect_timeout": "connect_timeout <seconds>.",
    "ftp_username": "ftp_username <user>: the anonymous-FTP user.",
    "banner_file": "banner_file <path>: greeting text file.",
    "local_root": "local_root <path>: chroot directory for local users.",
    # one_process_mode, virtual_use_local_privs, chroot_local_user,
    # trans_chunk_size, anon_max_rate, delay_failed_login,
    # anon_mkdir_write_enable, require_ssl_reuse are undocumented in
    # the mini manual - including their control dependencies
    # (Table 8's 47 undocumented control dependencies for VSFTP).
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="noop",
            requests=["NOOP"],
            oracle=lambda r: r == ["200 NOOP ok"],
            duration=0.3,
        ),
        FunctionalTest(
            name="anon_login",
            requests=["USER anonymous"],
            oracle=lambda r: r == ["230 Anonymous login ok"],
            duration=1.0,
        ),
        FunctionalTest(
            name="local_login",
            requests=["USER alice"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("230"),
            duration=1.5,
        ),
        FunctionalTest(
            name="retrieve",
            requests=["USER anonymous", "RETR welcome.msg"],
            oracle=lambda r: len(r) == 2 and r[1] == "226 Sent welcome.msg",
            duration=2.0,
        ),
    ]


def _bool_param(name: str) -> ParamSpec:
    """Bool-table parameter: YES/NO surface, int-typed store, mapped
    to the same-named variable (``listen`` aliases ``listen_ipv4``)."""
    return ParamSpec(
        name,
        decode="bool",
        var="listen_ipv4" if name == "listen" else SAME_AS_NAME,
        manual=MANUAL.get(name),
        truth=(truth_basic(name, "int"),),
    )


_BOOLS = [
    "listen",
    "listen_ipv6",
    "anonymous_enable",
    "anon_upload_enable",
    "anon_mkdir_write_enable",
    "local_enable",
    "write_enable",
    "chroot_local_user",
    "virtual_use_local_privs",
    "one_process_mode",
    "ssl_enable",
    "ssl_tlsv1",
    "require_ssl_reuse",
    "delay_failed_login",
]

# Int-table parameters and their extra truth beyond the basic type.
_INTS: list[tuple[str, tuple]] = [
    ("listen_port", (truth_semantic("listen_port", "PORT"),)),
    ("max_clients", (truth_range("max_clients"),)),
    ("max_per_ip", (truth_range("max_per_ip"),)),
    ("anon_max_rate", ()),
    ("idle_session_timeout", (truth_semantic("idle_session_timeout", "TIME"),)),
    (
        "data_connection_timeout",
        (truth_semantic("data_connection_timeout", "TIME"),),
    ),
    ("accept_timeout", (truth_semantic("accept_timeout", "TIME"),)),
    ("connect_timeout", (truth_semantic("connect_timeout", "TIME"),)),
    ("trans_chunk_size", (truth_semantic("trans_chunk_size", "SIZE"),)),
]

_STRS: list[tuple[str, str]] = [
    ("ftp_username", "USER"),
    ("banner_file", "FILE"),
    ("local_root", "DIRECTORY"),
]

@register("vsftpd")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="vsftpd",
        display_name="VSFTP",
        description="Miniature vsftpd with the paper's VSFTP traits",
        sources={"vsftpd.c": VSFTPD_MAIN},
        annotations=ANNOTATIONS,
        dialect=KeyValueDialect("="),
        config_path="/etc/vsftpd.conf",
        default_config=DEFAULT_CONFIG,
        params=[_bool_param(name) for name in _BOOLS]
        + [
            ParamSpec(
                name,
                decode="int",
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"),) + extra,
            )
            for name, extra in _INTS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"), truth_semantic(name, sem)),
            )
            for name, sem in _STRS
        ],
        tests=_tests(),
        extra_truth=[
            truth_ctrl_dep("ssl_tlsv1", "ssl_enable"),
            truth_ctrl_dep("require_ssl_reuse", "ssl_tlsv1"),
            truth_ctrl_dep("chroot_local_user", "local_enable"),
            truth_ctrl_dep("require_ssl_reuse", "ssl_enable"),
            truth_ctrl_dep("virtual_use_local_privs", "one_process_mode"),
            truth_ctrl_dep("virtual_use_local_privs", "local_enable"),
            truth_ctrl_dep("local_root", "chroot_local_user"),
            truth_ctrl_dep("anon_upload_enable", "write_enable"),
            truth_ctrl_dep("trans_chunk_size", "anon_max_rate"),
        ],
    )
