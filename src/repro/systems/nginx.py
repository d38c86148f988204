"""nginx-mini: miniature web server, system #8.

This system carries the repo's access-control traits end to end:

* ``root`` must be readable by the ``user`` identity - checked at
  startup with a blameless message naming directive, path and user;
* ``upload_store`` must be writable by the same identity - but the
  worker bails out *silently* when it is not (the classic nginx
  "uploads mysteriously 403" deployment mistake: an early termination
  no log line explains);
* ``upload_store_mode`` is installed verbatim via ``chmod`` - a
  permission-mode parameter (non-octal values are rejected at parse
  time, but a world-writable mode is accepted without comment).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_access,
    truth_basic,
    truth_range,
    truth_semantic,
)
from repro.inject.ar import DirectiveDialect
from repro.systems.base import (
    FunctionalTest,
    OsDir,
    OsFile,
    ParamSpec,
    SubjectSystem,
)
from repro.systems.registry import register

NGINX_MAIN = r"""
// nginx-mini
int listen_port = 8080;
int worker_count = 2;
int keepalive_timeout = 65;
int client_max_body = 1048576;
int sendfile_on = 1;
int upload_mode_bits = 493;
char *run_user = "www-data";
char *static_root = "/data/nginx/static";
char *upload_root = "/data/nginx/uploads";
char *index_name = "index.html";
char *access_log_path = "/var/log/nginx/access.log";
char *error_log_path = "/var/log/nginx/error.log";

int set_listen(char *arg) {
    listen_port = atoi(arg);
    return 0;
}

int set_worker_processes(char *arg) {
    worker_count = atoi(arg);
    if (worker_count < 1) {
        fprintf(stderr, "nginx: [emerg] invalid worker_processes \"%s\"\n",
                arg);
        exit(1);
    }
    return 0;
}

int set_user(char *arg) {
    if (getpwnam(arg) == NULL) {
        fprintf(stderr, "nginx: [emerg] getpwnam(\"%s\") failed\n", arg);
        exit(1);
    }
    run_user = arg;
    return 0;
}

int set_root(char *arg) {
    static_root = arg;
    return 0;
}

int set_upload_store(char *arg) {
    upload_root = arg;
    return 0;
}

int set_upload_store_mode(char *arg) {
    // Octal, like the real upload module's directive.
    upload_mode_bits = strtol(arg, NULL, 8);
    if (upload_mode_bits < 1 || upload_mode_bits > 4095) {
        fprintf(stderr,
                "nginx: [emerg] invalid upload_store_mode \"%s\"\n", arg);
        exit(1);
    }
    return 0;
}

int set_keepalive_timeout(char *arg) {
    keepalive_timeout = atoi(arg);
    return 0;
}

int set_client_max_body_size(char *arg) {
    client_max_body = atoi(arg);
    return 0;
}

int set_sendfile(char *arg) {
    if (strcasecmp(arg, "on") == 0) {
        sendfile_on = 1;
    } else if (strcasecmp(arg, "off") == 0) {
        sendfile_on = 0;
    } else {
        fprintf(stderr, "nginx: [emerg] invalid value \"%s\" in sendfile\n",
                arg);
        exit(1);
    }
    return 0;
}

int set_index(char *arg) {
    index_name = arg;
    return 0;
}

int set_access_log(char *arg) {
    access_log_path = arg;
    return 0;
}

int set_error_log(char *arg) {
    error_log_path = arg;
    return 0;
}

struct command_rec { char *name; void *func; };

struct command_rec ngx_commands[] = {
    { "listen", set_listen },
    { "worker_processes", set_worker_processes },
    { "user", set_user },
    { "root", set_root },
    { "upload_store", set_upload_store },
    { "upload_store_mode", set_upload_store_mode },
    { "keepalive_timeout", set_keepalive_timeout },
    { "client_max_body_size", set_client_max_body_size },
    { "sendfile", set_sendfile },
    { "index", set_index },
    { "access_log", set_access_log },
    { "error_log", set_error_log },
};

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "nginx: [emerg] open() \"%s\" failed\n", path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *key = str_token(trimmed, 0);
            char *value = str_token(trimmed, 1);
            if (key != NULL && value != NULL) {
                int i;
                for (i = 0; i < 12; i++) {
                    if (strcmp(key, ngx_commands[i].name) == 0) {
                        ngx_commands[i].func(value);
                    }
                }
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int open_logs() {
    void *fp = fopen(access_log_path, "a");
    if (fp == NULL) {
        fprintf(stderr, "nginx: [emerg] open() \"%s\" failed\n",
                access_log_path);
        exit(1);
    }
    fclose(fp);
    fp = fopen(error_log_path, "a");
    if (fp == NULL) {
        fprintf(stderr, "nginx: [emerg] open() \"%s\" failed\n",
                error_log_path);
        exit(1);
    }
    fclose(fp);
    return 0;
}

int check_roots() {
    if (!is_directory(static_root)) {
        fprintf(stderr, "nginx: [emerg] root \"%s\" is not a directory\n",
                static_root);
        exit(1);
    }
    if (check_read_access(static_root, run_user) != 0) {
        // Blameless and precise: names the directive, the path and the
        // identity whose permission is missing.
        fprintf(stderr, "nginx: [emerg] root \"%s\" is not readable by "
                "user %s (fix the directory mode or the user directive)\n",
                static_root, run_user);
        exit(1);
    }
    chmod(upload_root, upload_mode_bits);
    if (check_write_access(upload_root, run_user) != 0) {
        // The deployment footgun: no log line, the master just never
        // starts its workers (silent early termination).
        return 1;
    }
    return 0;
}

int init_network() {
    int fd = socket(2, 1, 0);
    if (bind(fd, listen_port) != 0) {
        fprintf(stderr, "nginx: [emerg] bind() to port %d failed "
                "(98: Address already in use)\n", listen_port);
        exit(1);
    }
    listen(fd, 511);
    char *body_buf = malloc(client_max_body);
    return 0;
}

int keepalive_tick() {
    int wait = keepalive_timeout;
    if (wait > 2) { wait = 2; }
    sleep(wait);
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "GET ", 4) == 0) {
            char *path = str_token(req, 1);
            if (sendfile_on != 0) {
                send_response(sprintf("HTTP/1.1 200 OK sendfile %s%s",
                                      static_root, path));
            } else {
                send_response(sprintf("HTTP/1.1 200 OK copy %s%s",
                                      static_root, path));
            }
        } else if (strncmp(req, "PUT ", 4) == 0) {
            char *path = str_token(req, 1);
            if (strlen(req) > client_max_body) {
                send_response("HTTP/1.1 413 Request Entity Too Large");
            } else {
                send_response(sprintf("HTTP/1.1 201 Created %s%s",
                                      upload_root, path));
            }
        } else if (strcmp(req, "STATUS") == 0) {
            send_response(sprintf("workers=%d sendfile=%d keepalive=%d",
                                  worker_count, sendfile_on,
                                  keepalive_timeout));
        } else {
            send_response("HTTP/1.1 400 Bad Request");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: nginx <config>\n");
        return 2;
    }
    read_config(argv[1]);
    open_logs();
    if (check_roots() != 0) {
        return 1;
    }
    init_network();
    keepalive_tick();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = ngx_commands
  @PAR = [command_rec, 1]
  @VAR = ([command_rec, 2], $arg) }
"""

DEFAULT_CONFIG = """\
# nginx-mini configuration
listen 8080
worker_processes 2
user www-data
root /data/nginx/static
upload_store /data/nginx/uploads
upload_store_mode 0755
keepalive_timeout 65
client_max_body_size 1048576
sendfile on
index index.html
access_log /var/log/nginx/access.log
error_log /var/log/nginx/error.log
"""


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="fetch_index",
            requests=["GET /index.html"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("HTTP/1.1 200"),
            duration=1.0,
        ),
        FunctionalTest(
            name="upload",
            requests=["PUT /report.txt"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("HTTP/1.1 201"),
            duration=1.0,
        ),
        FunctionalTest(
            name="status",
            requests=["STATUS"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("workers="),
            duration=0.5,
        ),
    ]


@register("nginx")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="nginx",
        display_name="nginx",
        description="Miniature web server with access-control traits",
        sources={"nginx.c": NGINX_MAIN},
        annotations=ANNOTATIONS,
        dialect=DirectiveDialect(),
        config_path="/etc/nginx.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                "listen",
                decode="int",
                var="listen_port",
                manual="listen <port>.",
                truth=(
                    truth_basic("listen", "int"),
                    truth_semantic("listen", "PORT"),
                ),
            ),
            ParamSpec(
                "worker_processes",
                decode="int",
                var="worker_count",
                manual="worker_processes <n>: worker process count (>= 1).",
                truth=(
                    truth_basic("worker_processes", "int"),
                    truth_range("worker_processes"),
                ),
            ),
            ParamSpec(
                "user",
                decode="string",
                var="run_user",
                manual="user <name>: identity the workers run as.",
                truth=(
                    truth_basic("user", "string"),
                    truth_semantic("user", "USER"),
                ),
            ),
            ParamSpec(
                "root",
                decode="string",
                var="static_root",
                manual="root <directory>: document root, readable by user.",
                truth=(
                    truth_basic("root", "string"),
                    truth_semantic("root", "DIRECTORY"),
                    truth_semantic("root", "PATH"),
                    truth_access("root", "read"),
                ),
            ),
            ParamSpec(
                "upload_store",
                decode="string",
                var="upload_root",
                manual="upload_store <directory>: upload spool, writable "
                "by user.",
                truth=(
                    truth_basic("upload_store", "string"),
                    truth_semantic("upload_store", "PATH"),
                    truth_access("upload_store", "write"),
                ),
            ),
            ParamSpec(
                "upload_store_mode",
                decode="string",
                # The handler parses octal text into mode bits; like
                # Apache's MaxMemFree (KB -> bytes) the stored value is a
                # transformation of the config text, so no effective-value
                # tracking.
                var=None,
                manual="upload_store_mode <octal>: permission mode chmod'ed "
                "onto upload_store.",
                truth=(
                    # strtol returns long; the mini manual documents the
                    # octal-text surface, the store is 64-bit.
                    truth_basic("upload_store_mode", "long"),
                    truth_semantic("upload_store_mode", "PERMISSION"),
                    truth_range("upload_store_mode"),
                    truth_access("upload_store_mode", "mode"),
                ),
            ),
            ParamSpec(
                "keepalive_timeout",
                decode="int",
                manual="keepalive_timeout <seconds>.",
                truth=(
                    truth_basic("keepalive_timeout", "int"),
                    truth_semantic("keepalive_timeout", "TIME"),
                ),
            ),
            ParamSpec(
                "client_max_body_size",
                decode="size",
                var="client_max_body",
                manual="client_max_body_size <bytes>.",
                truth=(
                    truth_basic("client_max_body_size", "int"),
                    truth_semantic("client_max_body_size", "SIZE"),
                ),
            ),
            ParamSpec(
                "sendfile",
                decode="bool",
                var="sendfile_on",
                manual="sendfile on|off.",
                truth=(
                    truth_basic("sendfile", "string"),
                    truth_range("sendfile"),
                ),
            ),
            ParamSpec(
                "index",
                decode="string",
                var="index_name",
                manual="index <filename>.",
                truth=(truth_basic("index", "string"),),
            ),
            ParamSpec(
                "access_log",
                decode="string",
                var="access_log_path",
                manual="access_log <path>.",
                truth=(
                    truth_basic("access_log", "string"),
                    truth_semantic("access_log", "FILE"),
                ),
            ),
            ParamSpec(
                "error_log",
                decode="string",
                var="error_log_path",
                # Undocumented by design: feeds the undocumented-constraint
                # analysis like Apache's ThreadLimit.
                truth=(
                    truth_basic("error_log", "string"),
                    truth_semantic("error_log", "FILE"),
                ),
            ),
        ],
        tests=_tests(),
        os_dirs=[
            OsDir("/data/nginx/static", mode=0o755, owner="root"),
            OsDir("/data/nginx/uploads", mode=0o755, owner="www-data"),
        ],
        os_files=[
            OsFile("/var/log/nginx/access.log"),
            OsFile("/var/log/nginx/error.log"),
        ],
        # nginx has no Tables 9-10 case set; weight the mix toward the
        # access-control mistakes this system exists to demonstrate.
        mistake_mix={
            "basic": 3.0,
            "semantic": 2.0,
            "range": 2.0,
            "access_control": 3.0,
        },
    )
